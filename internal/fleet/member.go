package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// maxIdleFollows is how many idle connections a member's transport keeps.
// Every job in flight on a replica holds one connection open for its event
// stream, and the next job's follow should find one idle instead of dialing;
// the default transport keeps 2 per host. 128 covers a replica's default
// admission bound (64 queued + its slots) with room to spare, and idle
// connections past the current concurrency age out after 90 s anyway.
const maxIdleFollows = 128

// errMemberDown is the cancellation cause of a request whose replica was
// marked down under it.
var errMemberDown = errors.New("replica marked down by the health check")

// member is one replica: its typed client plus the health checker's view.
// Members start optimistically healthy (NewRouter's first probe lands before
// any placement); consecutive failures past the threshold mark a member down
// — out of the placement ring, and every request the router holds open on it
// canceled — and a single successful probe puts it back. A replica reporting
// itself draining is out of the ring too — it no longer admits jobs — but it
// is not down: its in-flight jobs are still followed.
type member struct {
	name      string
	client    *serveclient.Client
	transport *http.Transport

	mu          sync.Mutex
	healthy     bool
	consecFails int
	stats       serve.ReplicaStats
	lastSeen    time.Time
	// up is canceled when the member goes down and replaced when a probe
	// succeeds again; whileUp ties a request's lifetime to it, so a replica
	// that accepts connections and never answers cannot hold a job forever.
	up      context.Context
	putDown context.CancelFunc
}

func newMember(name string) *member {
	m := &member{name: name, client: serveclient.New(name), healthy: true}
	m.transport = &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: maxIdleFollows,
		IdleConnTimeout:     90 * time.Second,
	}
	m.client.HTTP.Transport = m.transport
	m.up, m.putDown = context.WithCancel(context.Background())
	return m
}

// Healthy reports whether the member is currently in the placement ring.
func (m *member) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

// Stats returns the last successful probe's snapshot.
func (m *member) Stats() (serve.ReplicaStats, time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats, m.lastSeen
}

// whileUp derives a context from parent that also ends, with cause
// errMemberDown, when the member goes down. The returned func releases it.
func (m *member) whileUp(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	m.mu.Lock()
	up := m.up
	m.mu.Unlock()
	stop := context.AfterFunc(up, func() { cancel(errMemberDown) })
	return ctx, func() {
		stop()
		cancel(nil)
	}
}

// strikeLocked counts one failure; at the threshold the member is down.
func (m *member) strikeLocked(failThreshold int) {
	m.consecFails++
	if m.consecFails >= failThreshold {
		m.healthy = false
		m.putDown()
	}
}

// probe folds one health-check result in and reports whether the member's
// placement eligibility flipped (the caller rebuilds the ring on a flip).
func (m *member) probe(stats serve.ReplicaStats, err error, failThreshold int) (flipped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	was := m.healthy
	if err != nil {
		m.strikeLocked(failThreshold)
	} else {
		m.consecFails = 0
		m.stats = stats
		m.lastSeen = time.Now()
		m.healthy = !stats.Draining
		if m.up.Err() != nil {
			m.up, m.putDown = context.WithCancel(context.Background())
		}
	}
	return m.healthy != was
}

// fault records a transport error observed outside the health loop (a failed
// placement or status request) so a dead replica leaves the ring after
// failThreshold strikes instead of waiting for the next scheduled probe.
func (m *member) fault(failThreshold int) (flipped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	was := m.healthy
	m.strikeLocked(failThreshold)
	return m.healthy != was
}

// close releases the member's contexts and idle connections.
func (m *member) close() {
	m.mu.Lock()
	m.putDown()
	m.mu.Unlock()
	m.transport.CloseIdleConnections()
}

// healthLoop probes every member each interval until stop closes, rebuilding
// the placement ring whenever a member's eligibility flips.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll checks every member concurrently so one hung replica cannot delay
// the others' probes past the interval.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, m := range r.memberList() {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.HealthInterval)
			defer cancel()
			stats, err := m.client.Stats(ctx)
			if m.probe(stats, err, r.opts.FailThreshold) {
				switch {
				case m.Healthy():
					r.opts.Logf("replica %s back in the placement ring", m.name)
				case err != nil:
					r.opts.Logf("replica %s marked down: %v", m.name, err)
				default:
					r.opts.Logf("replica %s draining, removed from placement", m.name)
				}
				r.rebuildRing()
			}
		}(m)
	}
	wg.Wait()
}
