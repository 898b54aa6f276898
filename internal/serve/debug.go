package serve

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler serves net/http/pprof's index and profiles under
// /debug/pprof/. etsc-serve and etsc-router mount it only on the listener
// their -debug-addr flag opens, off by default: the /v1 handlers never
// serve it.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
