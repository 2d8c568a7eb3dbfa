package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/client"
	"repro/internal/router"
	"repro/internal/server"
)

// tier is the serving stack under test: lopserve backends, optionally
// behind a loprouter, each on its own localhost listener in this
// process. Persistence is off, so nothing touches the disk.
type tier struct {
	front    string // base URL the client talks to
	backends []*server.Server
	rt       *router.Router
	https    []*http.Server
	wg       sync.WaitGroup
}

// startTier starts n backends with cfg and, when routed, a router in
// front of them. With tr non-nil every handler is wrapped to record
// spans.
func startTier(n int, routed bool, cfg server.Config, tr *tracer) (*tier, error) {
	t := &tier{}
	var peers []string
	for range n {
		s := server.New(cfg)
		t.backends = append(t.backends, s)
		base, err := t.serve(tr.handler("server", s))
		if err != nil {
			t.close()
			return nil, err
		}
		peers = append(peers, base)
	}
	t.front = peers[0]
	if routed {
		rt, err := router.New(router.Config{Peers: peers})
		if err != nil {
			t.close()
			return nil, err
		}
		t.rt = rt
		if t.front, err = t.serve(tr.handler("router", rt)); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// serve listens on a free localhost port and serves h there.
func (t *tier) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	t.https = append(t.https, srv)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, the router's prober and the backends' job
// pools, and waits for every serving goroutine to return.
func (t *tier) close() {
	for _, srv := range t.https {
		srv.Close()
	}
	t.wg.Wait()
	if t.rt != nil {
		t.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range t.backends {
		s.Close(ctx)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// client returns an SDK client of the tier's front. With tr non-nil
// its transport records a span per round trip.
func (t *tier) client(tr *tracer) (*client.Client, error) {
	var opts []client.Option
	if tr != nil {
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: tr.transport(http.DefaultTransport)}))
	}
	return client.New(t.front, opts...)
}

// statsSnapshot holds the /v1/stats counters the per-layer metrics
// difference across the timed window.
type statsSnapshot struct {
	cacheHits, cacheMisses int64
	builds                 int64
	repairs, fallbacks     int64
	hydrations             int64
}

func (t *tier) stats(ctx context.Context) (statsSnapshot, error) {
	c, err := client.New(t.front)
	if err != nil {
		return statsSnapshot{}, err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return statsSnapshot{}, fmt.Errorf("stats: %w", err)
	}
	s := statsSnapshot{
		cacheHits: st.Cache.Hits, cacheMisses: st.Cache.Misses,
		builds:  st.Registry.Builds,
		repairs: st.Registry.Repairs, fallbacks: st.Registry.RepairFallbacks,
	}
	if st.Router != nil {
		s.hydrations = st.Router.Hydrations
	}
	return s, nil
}

func (s statsSnapshot) sub(o statsSnapshot) statsSnapshot {
	return statsSnapshot{
		cacheHits: s.cacheHits - o.cacheHits, cacheMisses: s.cacheMisses - o.cacheMisses,
		builds:  s.builds - o.builds,
		repairs: s.repairs - o.repairs, fallbacks: s.fallbacks - o.fallbacks,
		hydrations: s.hydrations - o.hydrations,
	}
}
