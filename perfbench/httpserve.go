package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// serveHTTP serves h on a loopback port and returns its base URL and a
// stop function that shuts the server down and waits for it to return.
func serveHTTP(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// requestHeader carries a traced client's request id to the server, so
// the server-side span shares the client span's id.
const requestHeader = "X-Perfbench-Request"

type requestIDKey struct{}

// tagging is a client transport that copies the request id from the
// request's context into requestHeader.
type tagging struct{ base http.RoundTripper }

func (t tagging) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// handled is one request a server handled.
type handled struct {
	path  string
	dur   time.Duration
	bytes int
}

// handlerLog collects what observers saw. Safe for concurrent use.
type handlerLog struct {
	mu   sync.Mutex
	reqs []handled
}

// durations returns the handler times of requests to path, in seconds.
func (l *handlerLog) durations(path string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, h := range l.reqs {
		if h.path == path {
			out = append(out, h.dur.Seconds())
		}
	}
	return out
}

// meanBytes returns the mean response size of requests to path.
func (l *handlerLog) meanBytes(path string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, sum := 0, 0
	for _, h := range l.reqs {
		if h.path == path {
			n++
			sum += h.bytes
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// observer wraps a server's handler, the boundary of the service layer:
// it logs each request's handler time and response size and, when spans
// is set, records a span on track.
type observer struct {
	log   *handlerLog
	spans *recorder
	track string
	// tagged limits spans to requests carrying requestHeader, i.e. those
	// sent during a traced unit.
	tagged bool
}

func (o observer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		tag := r.Header.Get(requestHeader)
		if o.spans != nil && (!o.tagged || tag != "") {
			id, _ := strconv.ParseInt(tag, 10, 64)
			o.spans.add(r.Method+" "+r.URL.Path, o.track, start, end, -1, id)
		}
		o.log.mu.Lock()
		o.log.reqs = append(o.log.reqs, handled{r.URL.Path, end.Sub(start), cw.n})
		o.log.mu.Unlock()
	})
}

// countingWriter counts the response bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}
