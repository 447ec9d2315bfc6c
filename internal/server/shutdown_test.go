package server_test

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestShutdownRacesAccept dials in a loop while Shutdown runs. A
// connection accepted after draining began must be refused, not added
// to the wait group Shutdown is already waiting on; under -race an
// unguarded Add there is reported against the Wait.
func TestShutdownRacesAccept(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := server.New(server.Config{Registry: obs.NewRegistry()})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		addr := ln.Addr().String()
		awaitAccepting(t, addr)

		stop := make(chan struct{})
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
						c.Close()
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		close(stop)
		dialers.Wait()
		if err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("round %d: serve: %v", round, err)
		}
	}
}

// awaitAccepting returns once the server's accept loop answers a
// connection: a malformed handshake draws an error frame back.
func awaitAccepting(t *testing.T, addr string) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
		t.Fatalf("no answer from the accept loop: %v", err)
	}
}
