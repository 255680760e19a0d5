package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cntfet/internal/cluster"
	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// replica is one in-process cntserve on a loopback listener. Its model
// cache is passed in explicitly — the same NewModelCache the server
// would create itself — so the benchmark can count fleet-wide builds.
type replica struct {
	srv    *server.Server
	cache  *server.ModelCache
	base   string
	served chan error
}

func startReplica() (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replica listen: %w", err)
	}
	cache := server.NewModelCache()
	r := &replica{
		srv:    server.New(server.Config{Addr: ln.Addr().String(), Resolver: cache}),
		cache:  cache,
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// fleet is what one run serves from: one replica, or two replicas
// behind a router configured as cntshard configures it.
type fleet struct {
	replicas     []*replica
	router       *cluster.Router
	routerBase   string
	routerSrv    *http.Server
	routerServed chan error
	stopProbes   func()
	// retries0 and failovers0 are the router counters at start.
	retries0, failovers0 int64
	stopOnce             sync.Once
	stopErr              error
}

func startFleet(ctx context.Context, replicas int, routed bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < replicas; i++ {
		r, err := startReplica()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	if !routed {
		return f, nil
	}
	var bases []string
	for _, r := range f.replicas {
		bases = append(bases, r.base)
	}
	rt, err := cluster.New(cluster.Config{Replicas: bases})
	if err != nil {
		f.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	reg := telemetry.Default()
	f.retries0 = reg.Counter(telemetry.KeyClusterRouteRetries).Value()
	f.failovers0 = reg.Counter(telemetry.KeyClusterRouteFailover).Value()
	f.router = rt
	f.routerBase = "http://" + ln.Addr().String()
	f.routerSrv = &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.routerServed = make(chan error, 1)
	f.stopProbes = rt.StartProbes(ctx)
	go func() { f.routerServed <- f.routerSrv.Serve(ln) }()
	return f, nil
}

// target is where the workload's client sends: the router when routed,
// else the first replica.
func (f *fleet) target() string {
	if f.router != nil {
		return f.routerBase
	}
	return f.replicas[0].base
}

// replicaAt finds the replica serving at base.
func (f *fleet) replicaAt(base string) *replica {
	for _, r := range f.replicas {
		if r.base == base {
			return r
		}
	}
	return nil
}

// builds counts the models the fleet's caches hold.
func (f *fleet) builds() int {
	n := 0
	for _, r := range f.replicas {
		n += r.cache.Len()
	}
	return n
}

// routerCounters returns retries and failovers since the fleet started.
func (f *fleet) routerCounters() (retries, failovers int64) {
	reg := telemetry.Default()
	return reg.Counter(telemetry.KeyClusterRouteRetries).Value() - f.retries0,
		reg.Counter(telemetry.KeyClusterRouteFailover).Value() - f.failovers0
}

// stop shuts every server down and waits for each Serve to return.
// Later calls return the first call's result.
func (f *fleet) stop() error {
	f.stopOnce.Do(func() { f.stopErr = f.shutdown() })
	return f.stopErr
}

func (f *fleet) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if f.stopProbes != nil {
		f.stopProbes()
	}
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Shutdown(ctx), served(<-f.routerServed))
	}
	// The router's upstream client is the default one. Probes racing
	// proxies can leave it a dialed connection that never carried a
	// request; a replica's Shutdown waits 5 s for such a connection
	// unless the client closes it first.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, r := range f.replicas {
		errs = append(errs, r.srv.Shutdown(ctx), served(<-r.served))
	}
	return errors.Join(errs...)
}

func served(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
