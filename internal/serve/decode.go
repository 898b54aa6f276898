package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"etsc/internal/client"
)

// DecodeBody decodes a /v1 request body into into, a pointer, and is the
// one place etsc-serve and etsc-router judge a body: a non-nil return is
// the 400 bad_json envelope to answer. The body must hold exactly one JSON
// value, so trailing data after it is an error, not a second request
// silently dropped. A *client.PushRequest is decoded by a hand-written
// scanner that accepts exactly what json.Unmarshal accepts, except a null
// in points, which json.Unmarshal would read as 0; every other type goes
// through json.Unmarshal.
func DecodeBody(body []byte, into any) *client.APIError {
	var err error
	if req, ok := into.(*client.PushRequest); ok {
		err = decodePush(body, req)
	} else {
		err = json.Unmarshal(body, into)
	}
	if err != nil {
		return BodyError(err)
	}
	return nil
}

// maxDepth is encoding/json's nesting limit: a value nested deeper than
// this many arrays and objects is an error.
const maxDepth = 10000

var (
	errEnd       = errors.New("unexpected end of JSON input")
	keyPoints    = []byte("points")
	keyAt        = []byte("at")
	errNotObject = errors.New(`want a JSON object {"points":[...]}`)
)

// decodePush decodes a push body into req with the result json.Unmarshal
// gives for a zero PushRequest, or fails where it fails, and also fails
// on a null element in the points that win. Member keys are unescaped and
// matched to "points" and "at" by bytes.EqualFold, which subsumes
// json.Unmarshal's exact match first; any other member's value is skipped
// after full validation, nesting depth included; the last of duplicate
// members wins; a points element goes through strconv.ParseFloat and at
// through strconv.ParseInt, and one out of range is an error. The decode
// reuses req's storage: Points' backing array and, when req.At is set, its
// pointee. So a reused request decodes a canonical body without allocating.
func decodePush(data []byte, req *client.PushRequest) error {
	d := pushDecoder{data: data}
	points, at := req.Points[:0], req.At
	*req = client.PushRequest{}
	switch d.ws() {
	case 0:
		return errEnd
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.object(req, points, at); err != nil {
			return err
		}
	default:
		return errNotObject
	}
	if c := d.ws(); c != 0 {
		return d.invalid(c, "after top-level value")
	}
	return nil
}

// pushDecoder is a cursor over one push body.
type pushDecoder struct {
	data []byte
	off  int
}

// ws skips JSON whitespace and returns the next byte, 0 at the end.
func (d *pushDecoder) ws() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// invalid is the syntax error for byte c at the cursor, 0 meaning the end.
func (d *pushDecoder) invalid(c byte, context string) error {
	if c == 0 && d.off >= len(d.data) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", c, context, d.off)
}

// object decodes the top-level object at the cursor into req; points and
// at are the storage a member may reuse.
func (d *pushDecoder) object(req *client.PushRequest, points []float64, at *int) error {
	d.off++
	if d.ws() == '}' {
		d.off++
		return nil
	}
	nullAt := -1 // a null element in the winning points array
	for {
		if c := d.ws(); c != '"' {
			return d.invalid(c, "looking for beginning of object key string")
		}
		var buf [24]byte // room for any key that folds to "points" or "at"
		key, err := d.str(buf[:0])
		if err != nil {
			return err
		}
		if c := d.ws(); c != ':' {
			return d.invalid(c, "after object key")
		}
		d.off++
		c := d.ws()
		switch {
		case bytes.EqualFold(key, keyPoints):
			if c == 'n' {
				err = d.literal("null")
				req.Points, nullAt = nil, -1
				break
			}
			points, nullAt, err = d.points(c, points[:0])
			req.Points = points
		case bytes.EqualFold(key, keyAt):
			if c == 'n' {
				err = d.literal("null")
				req.At = nil
				break
			}
			if at == nil {
				at = new(int)
			}
			err = d.at(c, at)
			req.At = at
		default:
			err = d.skip(c, 1)
		}
		if err != nil {
			return err
		}
		switch c := d.ws(); c {
		case ',':
			d.off++
		case '}':
			d.off++
			if nullAt >= 0 {
				return fmt.Errorf("points[%d] is null, not a number", nullAt)
			}
			return nil
		default:
			return d.invalid(c, "after object key:value pair")
		}
	}
}

// points decodes the array of numbers at the cursor, whose first byte is
// c, into dst. A null element is read as 0 and reported by index.
func (d *pushDecoder) points(c byte, dst []float64) ([]float64, int, error) {
	if c != '[' {
		return dst, -1, d.mistyped("points", "an array of numbers")
	}
	d.off++
	nullAt := -1
	if d.ws() == ']' {
		d.off++
		return dst, nullAt, nil
	}
	for {
		switch c := d.ws(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return dst, nullAt, err
			}
			if nullAt < 0 {
				nullAt = len(dst)
			}
			dst = append(dst, 0)
		case c == '-' || '0' <= c && c <= '9':
			lit, err := d.number()
			if err != nil {
				return dst, nullAt, err
			}
			v, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return dst, nullAt, fmt.Errorf("points[%d]: %w", len(dst), err)
			}
			dst = append(dst, v)
		default:
			return dst, nullAt, d.mistyped(fmt.Sprintf("points[%d]", len(dst)), "a number")
		}
		switch c := d.ws(); c {
		case ',':
			d.off++
		case ']':
			d.off++
			return dst, nullAt, nil
		default:
			return dst, nullAt, d.invalid(c, "after array element")
		}
	}
}

// at decodes the integer at the cursor, whose first byte is c, into *at.
func (d *pushDecoder) at(c byte, at *int) error {
	if c != '-' && (c < '0' || c > '9') {
		return d.mistyped("at", "an integer")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("at: %w", err)
	}
	*at = int(n)
	return nil
}

// mistyped is the error for a value at the cursor that is not of field's
// type, whether or not it is JSON.
func (d *pushDecoder) mistyped(field, want string) error {
	return fmt.Errorf("%s at offset %d: want %s", field, d.off, want)
}

// skip validates and steps over the JSON value at the cursor, whose first
// byte is c, inside depth open arrays and objects.
func (d *pushDecoder) skip(c byte, depth int) error {
	switch {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return errors.New("exceeded max depth")
		}
		d.off++
		end, after := byte('}'), "after object key:value pair"
		if c == '[' {
			end, after = ']', "after array element"
		}
		if d.ws() == end {
			d.off++
			return nil
		}
		for {
			if end == '}' {
				if c := d.ws(); c != '"' {
					return d.invalid(c, "looking for beginning of object key string")
				}
				if _, err := d.str(nil); err != nil {
					return err
				}
				if c := d.ws(); c != ':' {
					return d.invalid(c, "after object key")
				}
				d.off++
			}
			if err := d.skip(d.ws(), depth+1); err != nil {
				return err
			}
			switch c := d.ws(); c {
			case ',':
				d.off++
			case end:
				d.off++
				return nil
			default:
				return d.invalid(c, after)
			}
		}
	case c == '"':
		_, err := d.str(nil)
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	default:
		return d.invalid(c, "looking for beginning of value")
	}
}

// literal steps over the literal word at the cursor.
func (d *pushDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) {
			return errEnd
		}
		if d.data[d.off] != word[i] {
			return d.invalid(d.data[d.off], "in literal "+word)
		}
		d.off++
	}
	return nil
}

// number steps over the JSON number at the cursor and returns its text:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *pushDecoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.invalid(c, "in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if c := d.peek(); c < '0' || c > '9' {
			return nil, d.invalid(c, "after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if c := d.peek(); c < '0' || c > '9' {
			return nil, d.invalid(c, "in exponent of numeric literal")
		}
		d.digits()
	}
	return d.data[start:d.off], nil
}

// peek returns the byte at the cursor, 0 at the end.
func (d *pushDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// digits steps over a run of decimal digits.
func (d *pushDecoder) digits() {
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
}

// str steps over the string at the cursor and appends its unescaped bytes
// to key while key has room, returning nil once they do not fit, so a long
// key matches no member name. A \u escape of a UTF-16 surrogate, paired or
// not, unescapes to U+FFFD: no name here folds to one either way.
func (d *pushDecoder) str(key []byte) ([]byte, error) {
	d.off++
	add := func(r rune) {
		if key != nil && len(key)+utf8.RuneLen(r) <= cap(key) {
			key = utf8.AppendRune(key, r)
		} else {
			key = nil
		}
	}
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return key, nil
		case c < 0x20:
			return nil, d.invalid(c, "in string literal")
		case c == '\\':
			if d.off+1 >= len(d.data) {
				return nil, errEnd
			}
			switch e := d.data[d.off+1]; e {
			case '"', '\\', '/':
				add(rune(e))
			case 'b':
				add('\b')
			case 'f':
				add('\f')
			case 'n':
				add('\n')
			case 'r':
				add('\r')
			case 't':
				add('\t')
			case 'u':
				r := rune(0)
				for i := d.off + 2; i < d.off+6; i++ {
					if i >= len(d.data) {
						return nil, errEnd
					}
					h := d.data[i]
					switch {
					case '0' <= h && h <= '9':
						h -= '0'
					case 'a' <= h && h <= 'f':
						h -= 'a' - 10
					case 'A' <= h && h <= 'F':
						h -= 'A' - 10
					default:
						d.off = i
						return nil, d.invalid(d.data[i], "in \\u hexadecimal character escape")
					}
					r = r<<4 | rune(h)
				}
				if utf16.IsSurrogate(r) {
					r = utf8.RuneError
				}
				add(r)
				d.off += 4
			default:
				d.off++
				return nil, d.invalid(e, "in string escape code")
			}
			d.off += 2
		default:
			if key != nil && len(key) < cap(key) {
				key = append(key, c)
			} else {
				key = nil
			}
			d.off++
		}
	}
	return nil, errEnd
}
