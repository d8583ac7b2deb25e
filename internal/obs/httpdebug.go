package obs

import (
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"
)

// accessWriter captures the status code and payload byte count of one
// response for the access log, passing Flush through so streaming handlers
// (truncated-body fault injection, the ranged-GET writer) behave identically.
type accessWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *accessWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *accessWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports flushing, so
// wrapping never hides the http.Flusher capability handlers probe for.
func (w *accessWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.ResponseController keeps
// working through the access log (the gateway arms per-read body deadlines
// for slow-loris protection, which needs the real connection).
func (w *accessWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// AccessLog wraps next with a structured access log on l: one Info record
// per request carrying method, path, status, response bytes, duration and
// remote address. The record is emitted even when the handler panics with
// http.ErrAbortHandler (the connection-abort idiom fault injection uses) —
// the line then reports whatever had been written — and the panic is
// re-raised for net/http to handle.
func AccessLog(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aw := &accessWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			status := aw.status
			if status == 0 {
				status = http.StatusOK
			}
			l.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"bytes", aw.bytes,
				"duration", time.Since(start),
				"remote", r.RemoteAddr)
			if p := recover(); p != nil {
				panic(p)
			}
		}()
		next.ServeHTTP(aw, r)
	})
}

// DebugMux assembles the gateway's exposition surface on one handler:
//
//	/metrics        Prometheus text format of snap()
//	/debug/vars     the process expvar registry (JSON)
//	/debug/pprof/   the runtime profiler endpoints
//	/               app (when non-nil)
//
// The pprof handlers are mounted explicitly rather than through
// net/http/pprof's DefaultServeMux side effects, so the surface works on
// any server. snap is also published to expvar under namespace, making the
// same counters visible in /debug/vars.
func DebugMux(namespace string, snap func() Snapshot, app http.Handler) http.Handler {
	PublishExpvar(namespace, snap)
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(namespace, snap))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if app != nil {
		mux.Handle("/", app)
	}
	return mux
}
