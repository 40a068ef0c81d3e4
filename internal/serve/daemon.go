package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndDrain is the tail of both daemons, mpdata-serve and mpdata-router.
// It listens on addr and logs the machine-readable "listening on
// http://HOST:PORT" line, followed by about (scripts scrape the URL when addr
// picks a random port). It then serves h until SIGTERM or SIGINT, drains
// within timeout and shuts the HTTP server down. It returns an error when
// listening or serving fails or the drain leaves jobs behind.
func ListenAndDrain(addr string, h http.Handler, about string, drain func(time.Duration) error, timeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	log.Printf("listening on http://%s %s", ln.Addr().String(), about)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		log.Printf("received %s: draining (timeout %s)", sig, timeout)
		if err := drain(timeout); err != nil {
			hs.Close()
			return fmt.Errorf("drain: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		log.Printf("drained cleanly")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
