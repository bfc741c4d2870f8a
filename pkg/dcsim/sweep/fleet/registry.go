package fleet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// Config tunes a Registry.
type Config struct {
	// MissThreshold is how many consecutive heartbeats a member may miss
	// before it expires. 0 selects 3.
	MissThreshold int
	// DefaultInterval is the heartbeat interval granted to members whose
	// registration names none. 0 selects 2s.
	DefaultInterval time.Duration
	// MinInterval floors the interval a member may request, protecting
	// the coordinator from a worker heartbeating in a hot loop. 0 selects
	// 10ms.
	MinInterval time.Duration
	// Logf, when set, receives one line per membership change. Nil means
	// silent.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero-value config.
func (c Config) withDefaults() Config {
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.DefaultInterval <= 0 {
		c.DefaultInterval = 2 * time.Second
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 10 * time.Millisecond
	}
	return c
}

// member is one worker's registry record. Registry.mu guards every
// mutable field; the pointer outlives removal (the executor may still
// hold it), with gone marking the record dead.
type member struct {
	id          string
	url         string
	fingerprint string
	interval    time.Duration
	joined      time.Time

	draining   bool
	lastBeat   time.Time
	missed     int
	inflight   int64 // self-reported via heartbeat
	dispatched int   // coordinator-side: runs the executor has on it
	gone       bool

	timer  *time.Timer     // expiry watchdog, reset on every beat; nil for static members
	ctx    context.Context // cancelled when the member is removed
	cancel context.CancelFunc
}

// Registry is the coordinator-side fleet membership: who is in the
// fleet, how fresh their heartbeats are, and the churn counters. It is
// safe for concurrent use by the HTTP handler, the fleet executor, and
// the per-member expiry timers.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member // by ID
	byURL   map[string]*member
	order   []*member // join order, routing tie-breaker
	seq     int
	changed chan struct{} // closed and replaced on every membership/slot change
	closed  bool

	registrations uint64
	expirations   uint64
	misses        uint64
	stolen        uint64
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		members: map[string]*member{},
		byURL:   map[string]*member{},
		changed: make(chan struct{}),
	}
}

// logf logs through cfg.Logf when set.
func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// broadcastLocked wakes everyone waiting on membership or slot changes;
// callers hold r.mu.
func (r *Registry) broadcastLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// changedChan returns the channel closed at the next membership or slot
// change.
func (r *Registry) changedChan() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changed
}

// NewStaticRegistry builds the registry a fixed worker list (`-remote
// host1,host2`) runs on: every URL is a member from the start, with no
// heartbeat watchdog, leaving only on ReportFailure and draining only on
// MarkDraining. Blank and duplicate URLs are rejected by name, as is an
// empty list.
func NewStaticRegistry(urls []string) (*Registry, error) {
	r := NewRegistry(Config{})
	if err := r.addStatic(urls); err != nil {
		return nil, err
	}
	return r, nil
}

// addStatic admits the fixed members of a static registry.
func (r *Registry) addStatic(urls []string) error {
	if len(urls) == 0 {
		return fmt.Errorf("fleet: no worker URLs")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, raw := range urls {
		url, err := normalizeURL(raw)
		if err != nil {
			return fmt.Errorf("%w: %q", err, raw)
		}
		if r.byURL[url] != nil {
			return fmt.Errorf("fleet: duplicate worker URL %s", url)
		}
		r.addLocked(url, "", 0, false)
	}
	return nil
}

// normalizeURL is the one worker-URL normalization: trim, default the
// scheme to http, drop trailing slashes.
func normalizeURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	if u == "" {
		return "", fmt.Errorf("fleet: empty worker URL")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u, nil
}

// maxIntervalMS keeps an interval's watchdog deadline in Duration range.
const maxIntervalMS = math.MaxInt64 / 2 / int64(time.Millisecond)

// parseStatus parses a worker-reported status: ok/alive is routable,
// "draining" is not, and anything else but "" is an error. "" is routable
// at registration; a heartbeat that names no status keeps its member's
// state.
func parseStatus(status string) (bool, error) {
	switch status {
	case "", StateAlive, "ok":
		return false, nil
	case StateDraining:
		return true, nil
	}
	return false, fmt.Errorf("fleet: unknown status %q (want ok, alive or draining)", status)
}

// Register admits a worker into the fleet (or refreshes it: registering
// a URL already present replaces the old record, as a restarted worker
// does). The response names the member ID heartbeats must carry and the
// granted interval.
func (r *Registry) Register(req RegisterRequest) (RegisterResponse, error) {
	url, err := normalizeURL(req.URL)
	if err != nil {
		return RegisterResponse{}, err
	}
	drain, err := parseStatus(req.Status)
	if err != nil {
		return RegisterResponse{}, err
	}
	if req.IntervalMS > maxIntervalMS {
		return RegisterResponse{}, fmt.Errorf("fleet: heartbeat interval %dms out of range", req.IntervalMS)
	}
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = r.cfg.DefaultInterval
	}
	if interval < r.cfg.MinInterval {
		interval = r.cfg.MinInterval
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return RegisterResponse{}, ErrClosed
	}
	if old := r.byURL[url]; old != nil {
		// A restarted (or amnesiac) worker re-announcing itself: the old
		// incarnation's runs are lost either way, so retire it silently
		// and let the executor steal them onto the new member set.
		r.removeLocked(old, "replaced by re-registration")
	}
	m := r.addLocked(url, req.Capabilities, interval, drain)
	m.timer = time.AfterFunc(watchdog(interval), func() { r.onBeatDue(m) })
	// Capability drift is worth a line the moment it appears: two members
	// with different fingerprints cannot both serve every grid.
	for _, other := range r.order {
		if other != m && !other.gone && other.fingerprint != "" && m.fingerprint != "" &&
			other.fingerprint != m.fingerprint {
			r.logf("fleet: member %s (%s) capabilities differ from %s (%s) — registry drift",
				m.id, m.url, other.id, other.url)
			break
		}
	}
	r.logf("fleet: member %s joined: %s (heartbeat %s, expires after %d missed beats)",
		m.id, m.url, interval, r.cfg.MissThreshold)
	r.broadcastLocked()
	return RegisterResponse{
		ID:            m.id,
		IntervalMS:    interval.Milliseconds(),
		MissThreshold: r.cfg.MissThreshold,
	}, nil
}

// addLocked links a new member into the registry; callers hold r.mu and
// arm the expiry watchdog themselves (static members have none).
func (r *Registry) addLocked(url, fingerprint string, interval time.Duration, drain bool) *member {
	r.seq++
	now := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	m := &member{
		id:          fmt.Sprintf("w%d", r.seq),
		url:         url,
		fingerprint: fingerprint,
		interval:    interval,
		joined:      now,
		lastBeat:    now,
		draining:    drain,
		ctx:         ctx,
		cancel:      cancel,
	}
	r.members[m.id] = m
	r.byURL[url] = m
	r.order = append(r.order, m)
	r.registrations++
	return m
}

// Heartbeat records one beat from a member: freshness, status, and the
// worker's self-reported load. An unknown (typically expired) member gets
// ErrUnknownMember — the cue to re-register; a status other than
// ok/alive/draining is rejected and changes nothing, and no status ("")
// keeps the member's state.
func (r *Registry) Heartbeat(id string, hb HeartbeatRequest) error {
	drain, err := parseStatus(hb.Status)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone {
		return fmt.Errorf("%w: %s", ErrUnknownMember, id)
	}
	m.lastBeat = time.Now()
	m.missed = 0
	m.inflight = hb.Inflight
	if m.timer != nil {
		m.timer.Reset(watchdog(m.interval))
	}
	if hb.Status != "" && drain != m.draining {
		m.draining = drain
		if drain {
			r.logf("fleet: member %s (%s) draining — no new runs routed to it", m.id, m.url)
		} else {
			r.logf("fleet: member %s (%s) back to alive", m.id, m.url)
		}
		r.broadcastLocked()
	}
	return nil
}

// onBeatDue is a member's expiry watchdog firing: one beat overdue. After
// MissThreshold consecutive misses the member expires; until then the
// watchdog re-arms for the next interval.
func (r *Registry) onBeatDue(m *member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gone || r.closed {
		return
	}
	m.missed++
	r.misses++
	if m.missed >= r.cfg.MissThreshold {
		r.expireLocked(m, fmt.Sprintf("missed %d heartbeats", m.missed))
		return
	}
	r.logf("fleet: member %s (%s) missed heartbeat %d/%d", m.id, m.url, m.missed, r.cfg.MissThreshold)
	m.timer.Reset(watchdog(m.interval))
}

// watchdog is the deadline a beat must arrive by: the member's interval
// plus 50% slack, so a beat delayed only by its own HTTP round trip or
// scheduling jitter is not counted as missed.
func watchdog(interval time.Duration) time.Duration {
	return interval + interval/2
}

// ReportFailure removes a member on hard evidence from the data path — a
// transport-level dispatch failure. It counts as an expiration and, like
// expiry, cancels the member's context so other in-flight dispatches to
// it abort and get stolen.
func (r *Registry) ReportFailure(id string, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone {
		return
	}
	r.expireLocked(m, fmt.Sprintf("transport failure: %v", cause))
}

// MarkDraining flags a member as draining from the data path — a worker
// answering 503 draining before its heartbeat said so.
func (r *Registry) MarkDraining(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone || m.draining {
		return
	}
	m.draining = true
	r.logf("fleet: member %s (%s) draining (reported by dispatch)", m.id, m.url)
	r.broadcastLocked()
}

// Deregister removes a member at its own request (a worker leaving
// cleanly after its drain). It reports whether the ID was known.
func (r *Registry) Deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok || m.gone {
		return false
	}
	r.removeLocked(m, "deregistered")
	r.broadcastLocked()
	return true
}

// expireLocked removes a member the fleet lost (missed beats or transport
// failure); callers hold r.mu.
func (r *Registry) expireLocked(m *member, reason string) {
	r.expirations++
	r.removeLocked(m, reason)
	r.broadcastLocked()
}

// removeLocked unlinks a member and cancels its context; callers hold
// r.mu and broadcast afterwards if the removal should wake waiters.
func (r *Registry) removeLocked(m *member, reason string) {
	m.gone = true
	if m.timer != nil {
		m.timer.Stop()
	}
	m.cancel()
	delete(r.members, m.id)
	if r.byURL[m.url] == m {
		delete(r.byURL, m.url)
	}
	for i, o := range r.order {
		if o == m {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.logf("fleet: member %s left: %s (%s; %d dispatched run(s) to steal)",
		m.id, m.url, reason, m.dispatched)
}

// acquireSlot claims one dispatch slot on the least-loaded routable
// member (alive, not draining, under the per-member limit), join order
// breaking ties. It returns the member, or nil with the count of
// routable members — 0 meaning the fleet is empty, a positive count
// meaning every member is at capacity and the caller should wait.
func (r *Registry) acquireSlot(limit int) (*member, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routable := 0
	var pick *member
	for _, m := range r.order {
		if m.gone || m.draining {
			continue
		}
		routable++
		if m.dispatched >= limit {
			continue
		}
		if pick == nil || m.dispatched < pick.dispatched {
			pick = m
		}
	}
	if pick != nil {
		pick.dispatched++
	}
	return pick, routable
}

// releaseSlot returns a dispatch slot and wakes slot waiters.
func (r *Registry) releaseSlot(m *member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !m.gone && m.dispatched > 0 {
		m.dispatched--
	}
	r.broadcastLocked()
}

// noteStolen counts one run stolen back from a dead or draining member.
func (r *Registry) noteStolen() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stolen++
}

// Members snapshots the current membership in join order.
func (r *Registry) Members() []MemberInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberInfo, 0, len(r.order))
	for _, m := range r.order {
		state := StateAlive
		if m.draining {
			state = StateDraining
		}
		out = append(out, MemberInfo{
			ID:           m.id,
			URL:          m.url,
			State:        state,
			Capabilities: m.fingerprint,
			IntervalMS:   m.interval.Milliseconds(),
			Joined:       m.joined,
			LastBeat:     m.lastBeat,
			MissedBeats:  m.missed,
			Inflight:     m.inflight,
			Dispatched:   m.dispatched,
		})
	}
	return out
}

// Stats snapshots the fleet counters and gauges.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Registrations:   r.registrations,
		Expirations:     r.expirations,
		HeartbeatMisses: r.misses,
		RunsStolen:      r.stolen,
	}
	for _, m := range r.order {
		if m.draining {
			s.Draining++
		} else {
			s.Alive++
		}
	}
	return s
}

// WaitForMembers blocks until at least n routable (alive, non-draining)
// members are registered, or ctx ends.
func (r *Registry) WaitForMembers(ctx context.Context, n int) error {
	for {
		r.mu.Lock()
		routable := 0
		for _, m := range r.order {
			if !m.gone && !m.draining {
				routable++
			}
		}
		ch := r.changed
		closed := r.closed
		r.mu.Unlock()
		if routable >= n {
			return nil
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d worker(s), have %d: %w", n, routable, ctx.Err())
		}
	}
}

// Close shuts the registry down: every member is removed (their contexts
// cancelled), timers stopped, and further registrations rejected.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, m := range append([]*member(nil), r.order...) {
		r.removeLocked(m, "registry closed")
	}
	r.broadcastLocked()
}
