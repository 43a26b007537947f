package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"raven"
	"raven/internal/pgwire"
	"raven/internal/server"
	"raven/internal/server/stmtreg"
)

// servedOptions is ravenserved's default engine configuration: DOP
// GOMAXPROCS, admission at 2×GOMAXPROCS queries and 4×GOMAXPROCS worker
// slots, a 64-deep queue with a 5 s queue timeout, result cache off.
func servedOptions() []raven.Option {
	p := runtime.GOMAXPROCS(0)
	return []raven.Option{
		raven.WithParallelism(0),
		raven.WithMorselSize(0),
		raven.WithMaxConcurrentQueries(2 * p),
		raven.WithMaxWorkerSlots(4 * p),
		raven.WithSchedulerQueue(64, 5*time.Second),
	}
}

// stack is one engine behind both wire front ends, on loopback
// listeners, wired as ravenserved wires them (one statement registry).
type stack struct {
	db       *raven.DB
	http     *server.Server
	pg       *pgwire.Server
	httpBase string
	pgAddr   string
	httpErr  chan error
	pgErr    chan error
}

// serve starts the HTTP and pg front ends over db.
func serve(db *raven.DB) (*stack, error) {
	reg := stmtreg.New(0)
	s := &stack{
		db:      db,
		http:    server.New(db, server.Options{Statements: reg}),
		pg:      pgwire.New(db, reg, pgwire.Options{}),
		httpErr: make(chan error, 1),
		pgErr:   make(chan error, 1),
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	s.httpBase = "http://" + hl.Addr().String()
	s.pgAddr = pl.Addr().String()
	s.http.SetPgwireStats(func() any { return s.pg.Stats() })
	go func() { s.httpErr <- s.http.Serve(hl) }()
	go func() { s.pgErr <- s.pg.Serve(pl) }()
	return s, nil
}

// shutdown drains both front ends the way ravenserved does (pg stops
// admitting first, the HTTP drain drains the engine once) and waits for
// both serve loops to return. It leaves the engine open.
func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.pg.BeginDrain()
	err := s.http.Shutdown(ctx)
	if perr := s.pg.Shutdown(ctx); perr != nil && err == nil {
		err = fmt.Errorf("pg shutdown: %w", perr)
	}
	if e := <-s.httpErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := <-s.pgErr; e != nil && !errors.Is(e, pgwire.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// close shuts the front ends down and closes the engine.
func (s *stack) close() error {
	err := s.shutdown()
	if cerr := s.db.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// httpClient is one wire client holding at most one connection, so the
// load generator's connection count is exactly its client count.
func httpClient(base string) (*server.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &server.Client{Base: base, HTTP: &http.Client{Transport: tr}}, tr.CloseIdleConnections
}
