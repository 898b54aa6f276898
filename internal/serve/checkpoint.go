// Durable checkpoints for the serving layer: each stream's exported hub
// snapshot, wrapped with the registration metadata (kind, spec) needed to
// rebuild its trained classifier, written atomically to a
// directory the next boot can restore from.
//
// The frame deliberately carries no model weights — DESIGN.md §Layer 12:
// classifiers are deterministic functions of (kind dataset, spec), so the
// restoring server retrains through the same registry pipeline and the
// checkpoint stays small and version-stable. A checkpoint that fails
// validation at boot degrades to a counted fresh-start fallback (the
// stream re-attaches with its kind's config at position zero) instead of
// failing the boot: a monitoring fleet must come back up with whatever
// state survived.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"etsc/internal/hub"
	"etsc/internal/snap"
)

// checkpointKind and checkpointVersion tag the serve-layer checkpoint
// frame. The payload wraps the hub's own self-validating stream-state
// frame, so corruption is caught twice: at the outer CRC and again when
// the inner frame restores.
const (
	checkpointKind    = "etsc-checkpoint"
	checkpointVersion = 1
)

// ExportCheckpoint renders stream id as one self-contained checkpoint
// frame: registration metadata plus the hub's exported state. The export
// cuts at a batch boundary; the stream keeps running.
func (s *Server) ExportCheckpoint(id string) ([]byte, error) {
	state, err := s.hub.Export(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	m := s.metaLocked(id)
	s.mu.Unlock()
	var w snap.Writer
	w.String(id)
	w.String(m.kind)
	w.String(m.spec)
	w.String(engineName)
	w.Blob(state)
	return snap.Encode(checkpointKind, checkpointVersion, w.Bytes()), nil
}

// CheckpointMeta is a decoded checkpoint frame: the stream's identity,
// the registration metadata needed to rebuild its trained classifier, and
// the opaque hub state frame. ReadCheckpoints and DecodeCheckpoint
// produce it; the router front tier uses it to restore a dead backend's
// streams onto survivors from shared checkpoint storage.
type CheckpointMeta struct {
	ID   string
	Kind string
	Spec string
	// Engine is the engine name recorded at export: "eager" since one
	// engine remains, "pruned" or "eager" in older checkpoints. Restore
	// ignores it.
	Engine string
	State  []byte
}

// DecodeCheckpoint validates and unpacks one serve-layer checkpoint frame
// (the .ckpt file format ExportCheckpoint writes). Only the outer frame
// is validated here; the inner hub state frame re-validates when it is
// restored.
func DecodeCheckpoint(frame []byte) (CheckpointMeta, error) {
	var m CheckpointMeta
	kind, ver, payload, err := snap.Decode(frame)
	if err != nil {
		return m, err
	}
	if kind != checkpointKind {
		return m, fmt.Errorf("%w: frame kind %q, want %q", snap.ErrCorrupt, kind, checkpointKind)
	}
	if ver != checkpointVersion {
		return m, fmt.Errorf("%w: checkpoint version %d, this build reads %d", snap.ErrVersion, ver, checkpointVersion)
	}
	r := snap.NewReader(payload)
	m.ID = r.String()
	m.Kind = r.String()
	m.Spec = r.String()
	m.Engine = r.String()
	m.State = r.Blob()
	if err := r.Done(); err != nil {
		return m, err
	}
	return m, nil
}

// ReadCheckpoints reads dir's checkpoint files (*.ckpt) in name order and
// calls fn with each file's name and its decoded frame, or with the error
// that kept the file from reading or decoding. Boot restore
// (RestoreFromDir) and the router's backend-death recovery both read
// checkpoints here. A missing dir reads as empty; the returned error
// covers only an unreadable directory.
func ReadCheckpoints(dir string, fn func(name string, m CheckpointMeta, err error)) error {
	entries, err := os.ReadDir(dir) // sorted by name
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		var m CheckpointMeta
		frame, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			m, err = DecodeCheckpoint(frame)
		}
		fn(e.Name(), m, err)
	}
	return nil
}

// restoreCheckpoint attaches a decoded checkpoint's stream. A checkpoint
// whose state the hub rejects degrades to a fresh attach with the same
// configuration (fellBack true); one that names an unserved kind or a
// spec that does not train, or collides with a live stream, returns an
// error and attaches nothing.
func (s *Server) restoreCheckpoint(m CheckpointMeta) (fellBack bool, err error) {
	meta, sc, apiErr := s.resolveKind(m.Kind, m.Spec)
	if apiErr != nil {
		return false, fmt.Errorf("checkpoint for %q (kind %q, spec %q): %s", m.ID, m.Kind, m.Spec, apiErr.Message)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, rerr := s.hub.Restore(m.State, sc); rerr != nil {
		if errors.Is(rerr, hub.ErrDuplicate) || errors.Is(rerr, hub.ErrClosed) {
			return false, rerr
		}
		// State rejected — corrupt inner frame, stale format, config
		// drift. Everything but runtime position is rebuildable, so
		// restart the stream fresh rather than losing it entirely.
		if aerr := s.hub.Attach(m.ID, sc); aerr != nil {
			return false, fmt.Errorf("restore %q: %v; fresh attach also failed: %w", m.ID, rerr, aerr)
		}
		fellBack = true
	}
	s.meta[m.ID] = &meta
	return fellBack, nil
}

// RestoreStats tallies one RestoreFromDir pass.
type RestoreStats struct {
	// Restored streams resumed exactly at their checkpointed position.
	Restored int
	// Fallbacks re-attached fresh because their state failed validation.
	Fallbacks int
	// Skipped files attached nothing: undecodable, unserved kind, or a
	// stream id already live.
	Skipped int
}

// RestoreFromDir scans dir for checkpoint files and restores each before
// the server starts accepting traffic. Corrupt or stale files are
// per-stream fallbacks or skips — counted, logged, and visible in
// /metrics — never a failed boot; the returned error covers only an
// unreadable directory. A missing dir is an empty first boot.
func (s *Server) RestoreFromDir(dir string, logf func(format string, args ...any)) (RestoreStats, error) {
	if logf == nil {
		logf = log.Printf
	}
	// Readiness gate: /v1/healthz answers 503 until this pass finishes,
	// so a router prober never routes at a half-restored backend.
	s.restoring.Add(1)
	defer s.restoring.Add(-1)
	var st RestoreStats
	err := ReadCheckpoints(dir, func(name string, m CheckpointMeta, err error) {
		fellBack := false
		if err == nil {
			fellBack, err = s.restoreCheckpoint(m)
		}
		switch {
		case err != nil:
			st.Skipped++
			s.ckptSkipped.Add(1)
			logf("serve: checkpoint %s (stream %q) skipped: %v", name, m.ID, err)
		case fellBack:
			st.Fallbacks++
			s.ckptFallbacks.Add(1)
			logf("serve: checkpoint %s: state for %q rejected; stream restarted fresh", name, m.ID)
		default:
			st.Restored++
			s.ckptRestored.Add(1)
		}
	})
	return st, err
}

// Checkpointer periodically writes every live stream's checkpoint to a
// directory, atomically (write-tmp, fsync, rename), and prunes files for
// streams that no longer exist. One generation per Sync; a crash between
// generations loses at most interval's worth of replayable positions,
// never the files' integrity.
type Checkpointer struct {
	srv      *Server
	dir      string
	interval time.Duration
	logf     func(format string, args ...any)

	mu   sync.Mutex // serializes Sync against the background loop
	stop chan struct{}
	done chan struct{}
}

// NewCheckpointer prepares dir (created if missing) for periodic
// checkpoints of srv's streams every interval. Start begins the loop;
// Sync alone also works for one-shot (shutdown-time) generations.
func NewCheckpointer(srv *Server, dir string, interval time.Duration) (*Checkpointer, error) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Checkpointer{
		srv: srv, dir: dir, interval: interval, logf: log.Printf,
		stop: make(chan struct{}), done: make(chan struct{}),
	}, nil
}

// SetLogf redirects the checkpointer's diagnostics (tests).
func (c *Checkpointer) SetLogf(logf func(format string, args ...any)) { c.logf = logf }

// Start launches the background loop. Call Stop to end it.
func (c *Checkpointer) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if err := c.Sync(); err != nil {
					c.logf("serve: checkpoint sync: %v", err)
				}
			}
		}
	}()
}

// Stop ends the background loop and waits for an in-flight Sync to
// finish. The directory stays valid; call Sync once more after the final
// flush for a clean-shutdown generation.
func (c *Checkpointer) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// Sync writes one checkpoint generation: every live stream exported and
// atomically persisted, then files for departed streams removed. Errors
// are per-stream and collected — one bad stream does not stop the
// generation; the first error is returned after the full pass.
func (c *Checkpointer) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := map[string]bool{}
	var firstErr error
	for id := range c.srv.hub.Snapshot() {
		frame, err := c.srv.ExportCheckpoint(id)
		if err != nil {
			// The stream may have detached between Snapshot and Export;
			// that is not a fault, its file is pruned below.
			if !errors.Is(err, hub.ErrUnknownStream) && firstErr == nil {
				firstErr = fmt.Errorf("export %q: %w", id, err)
			}
			continue
		}
		name := checkpointFileName(id)
		keep[name] = true
		if err := writeFileAtomic(filepath.Join(c.dir, name), frame); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("write %q: %w", id, err)
			}
			continue
		}
		c.srv.ckptWrites.Add(1)
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	for _, e := range entries {
		name := e.Name()
		stale := strings.HasSuffix(name, ".ckpt") && !keep[name]
		torn := strings.HasPrefix(name, ".tmp-") // leftover from a crashed write
		if stale || torn {
			if err := os.Remove(filepath.Join(c.dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// checkpointFileName maps a stream id to a stable, filesystem-safe name.
// The FNV-64a suffix keeps distinct ids distinct even when sanitizing
// collapses their printable forms.
func checkpointFileName(id string) string {
	h := fnv.New64a()
	h.Write([]byte(id))
	safe := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(safe) < 64; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("%s-%016x.ckpt", safe, h.Sum64())
}

// writeFileAtomic lands data at path via tmp-file, fsync, rename, and a
// directory fsync — a reader (including the next boot) sees either the
// old complete file or the new complete file, never a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+base+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
