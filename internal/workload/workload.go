// Package workload implements the paper's two benchmark drivers as
// closed-loop clients: the redis-benchmark SET workload (50 clients, uniform
// keys, 4 KiB values) and YCSB-A (8 threads, zipfian keys, 50/50 GET:SET,
// 2 KiB values). A client is a pair of engine callbacks, not a process: it
// submits a request, and the request's reply signal runs the callback that
// records the result and submits the next one. Both drivers record
// per-operation latency histograms and can run for a fixed operation count
// or open-ended (for the runtime-RPS timelines of Figures 4–5).
package workload

import (
	"math/rand"
	"strconv"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
)

// formatKey renders k as a zero-padded decimal of exactly width bytes
// (wider only when the digits don't fit), matching
// fmt.Sprintf("%0*d", width, k) for k >= 0 without fmt's per-call boxing.
func formatKey(width int, k int64) string {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], k, 10)
	if len(digits) >= width {
		return string(digits)
	}
	out := make([]byte, width)
	pad := width - len(digits)
	for i := 0; i < pad; i++ {
		out[i] = '0'
	}
	copy(out[pad:], digits)
	return string(out)
}

// Distribution selects the key popularity distribution.
type Distribution int

const (
	// Uniform keys (redis-benchmark's default random keyspace).
	Uniform Distribution = iota
	// Zipfian keys (YCSB's default request distribution).
	Zipfian
)

// Config describes a workload.
type Config struct {
	// Clients is the number of closed-loop clients.
	Clients int
	// Ops is the total operation count across all clients; 0 means run
	// open-ended (stop the engine externally).
	Ops int64
	// KeyRange is the keyspace size.
	KeyRange int64
	// KeySize pads keys to this many bytes (paper: 8).
	KeySize int
	// ValueSize is the value payload size (paper: 4096 / 2048).
	ValueSize int
	// ReadRatio is the GET fraction (0 = SET-only, YCSB-A = 0.5).
	ReadRatio float64
	// Dist selects the key distribution.
	Dist Distribution
	// Theta is the zipfian skew constant, in (0, 1); 0 selects YCSB's
	// default 0.99. Ignored for Uniform.
	Theta float64
	// Seed makes the workload reproducible.
	Seed int64
}

// How many distinct pre-generated, half-compressible values rotate through a
// run's SETs, and through Preload's load phase.
const (
	valuePoolSize        = 64
	preloadValuePoolSize = 16
)

// RedisBench returns the paper's redis-benchmark configuration scaled to
// the given op count and key range (paper: 50 clients, 5.3 M keys, 8 B keys,
// 4096 B values, 28 M SETs).
func RedisBench(ops, keyRange int64) Config {
	return Config{
		Clients:   50,
		Ops:       ops,
		KeyRange:  keyRange,
		KeySize:   8,
		ValueSize: 4096,
		ReadRatio: 0,
		Dist:      Uniform,
		Seed:      1,
	}
}

// YCSBA returns the paper's YCSB-A configuration scaled to the given op
// count and record count (paper: 8 threads, 9 M records, 115 M ops, 2048 B
// values, 0.5 GET).
func YCSBA(ops, records int64) Config {
	return Config{
		Clients:   8,
		Ops:       ops,
		KeyRange:  records,
		KeySize:   8,
		ValueSize: 2048,
		ReadRatio: 0.5,
		Dist:      Zipfian,
		Seed:      1,
	}
}

// NoisyNeighbor returns the multi-tenant overwriter profile: a Zipf-heavy,
// SET-only tenant hammering a hot key set, the workload that destroys a
// co-located quiet tenant's WAF when placement streams are shared ("How to
// Write to SSDs", Lee et al.). The distinct seed keeps it uncorrelated with
// the steady tenants running beside it.
func NoisyNeighbor(ops, keyRange int64) Config {
	return Config{
		Clients:   16,
		Ops:       ops,
		KeyRange:  keyRange,
		KeySize:   8,
		ValueSize: 4096,
		ReadRatio: 0,
		Dist:      Zipfian,
		Theta:     zipfTheta,
		Seed:      7,
	}
}

// SteadyTenant returns the quiet co-located tenant profile: a moderate
// uniform writer whose WAF stays at 1.00 whenever its lifetimes get their
// own placement streams.
func SteadyTenant(ops, keyRange int64) Config {
	return Config{
		Clients:   8,
		Ops:       ops,
		KeyRange:  keyRange,
		KeySize:   8,
		ValueSize: 4096,
		ReadRatio: 0,
		Dist:      Uniform,
		Seed:      11,
	}
}

// YCSBC returns a YCSB-C configuration (read-only, zipfian).
func YCSBC(ops, records int64) Config {
	c := YCSBA(ops, records)
	c.ReadRatio = 1.0
	return c
}

// Result aggregates a finished (or stopped) workload run.
type Result struct {
	SetLatency metrics.Histogram
	GetLatency metrics.Histogram
	Ops        int64
	// Failed counts ops whose reply carried an error (a write the engine
	// refused or could not make durable). They are in neither Ops nor the
	// latency histograms.
	Failed     int64
	Start, End sim.Time
}

// RPS reports overall completed operations per second of virtual time.
func (r *Result) RPS() float64 {
	d := r.End.Sub(r.Start).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.Ops) / d
}

// Runner drives one workload against one engine.
type Runner struct {
	cfg Config
	db  *imdb.Engine
	// Done fires when every client has issued its share of Ops.
	Done *sim.Signal

	res     Result
	pending int
	keys    []string // keys[k] is key k formatted, or "" until first drawn
}

// Start starts the clients on eng against db. Each client's first request
// goes out from an event queued now, in the slot a spawned process would
// take.
func Start(eng *sim.Engine, db *imdb.Engine, cfg Config) *Runner {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	r := &Runner{cfg: cfg, db: db, Done: sim.NewSignal(eng), keys: make([]string, cfg.KeyRange)}
	r.res.Start = eng.Now()
	r.pending = cfg.Clients
	pool := valuePool(valuePoolSize, cfg.ValueSize, cfg.Seed)
	theta := cfg.Theta
	if theta <= 0 {
		theta = zipfTheta
	}
	var zetan float64
	if cfg.Dist == Zipfian {
		zetan = zetaSum(uint64(cfg.KeyRange), theta)
	}
	for c := 0; c < cfg.Clients; c++ {
		share := int64(0)
		if cfg.Ops > 0 {
			share = cfg.Ops / int64(cfg.Clients)
			if int64(c) < cfg.Ops%int64(cfg.Clients) {
				share++
			}
			if share == 0 { // fewer ops than clients: this one has none
				r.pending--
				continue
			}
		}
		client := &client{
			runner: r,
			eng:    eng,
			ops:    share,
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(c)*7919)),
			pool:   pool,
		}
		client.req.Reply = sim.NewSignal(eng)
		if cfg.Dist == Zipfian {
			client.zipf = newZipfGen(client.rng, uint64(cfg.KeyRange), theta, zetan)
		}
		client.onReplyFn = client.onReply
		eng.At(eng.Now(), client.issue)
	}
	return r
}

// key returns key k, formatting it the first time it is drawn.
func (r *Runner) key(k int64) string {
	if r.keys[k] == "" {
		r.keys[k] = formatKey(r.cfg.KeySize, k)
	}
	return r.keys[k]
}

// Result returns the aggregated metrics (valid once Done fires, or at any
// point for open-ended runs).
func (r *Runner) Result() *Result { return &r.res }

// valuePool pre-generates half-compressible values so SET payloads are
// cheap to produce but still realistic for the compressor.
func valuePool(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := make([][]byte, n)
	for i := range pool {
		v := make([]byte, size)
		rng.Read(v[:size/2])
		pool[i] = v
	}
	return pool
}

// client is one closed-loop client: issue submits an op, and the reply's
// Then runs onReply, which records it and issues the next, so the loop runs
// in engine callbacks with no process of its own. Every op reuses the one
// Request and its Reply signal, so a round trip allocates nothing. An
// open-ended client (ops == 0) never stops; the engine is stopped
// externally.
type client struct {
	runner *Runner
	eng    *sim.Engine
	ops    int64 // 0 = unbounded
	done   int64 // ops answered so far
	rng    *rand.Rand
	zipf   *zipfGen
	pool   [][]byte

	// The op in flight.
	req   imdb.Request
	isGet bool
	start sim.Time

	// onReply bound once, so no op allocates a method value.
	onReplyFn func()
}

func (c *client) key() string {
	cfg := &c.runner.cfg
	var k int64
	switch cfg.Dist {
	case Zipfian:
		k = int64(c.zipf.next())
		if k >= cfg.KeyRange {
			k = cfg.KeyRange - 1
		}
	default:
		k = c.rng.Int63n(cfg.KeyRange)
	}
	return c.runner.key(k)
}

// issue builds the next op, submits it and has its reply run onReply.
func (c *client) issue() {
	cfg := &c.runner.cfg
	c.isGet = cfg.ReadRatio > 0 && c.rng.Float64() < cfg.ReadRatio
	req := &c.req
	req.Key = c.key()
	if c.isGet {
		req.Op, req.Value = imdb.OpGet, nil
	} else {
		req.Op, req.Value = imdb.OpSet, c.pool[c.rng.Intn(len(c.pool))]
	}
	c.start = c.eng.Now()
	c.runner.db.Submit(req)
	req.Reply.Then(c.onReplyFn)
}

// onReply records the op in flight, then issues the next one or, when this
// client's share is done, counts it out and fires Runner.Done after the last.
func (c *client) onReply() {
	r := c.runner
	failed := c.req.Reply.Value().(*imdb.Response).Err != nil
	c.req.Reply.Reset()
	if failed {
		r.res.Failed++
	} else {
		now := c.eng.Now()
		lat := now.Sub(c.start)
		if c.isGet {
			r.res.GetLatency.Record(lat)
		} else {
			r.res.SetLatency.Record(lat)
		}
		r.res.Ops++
		r.res.End = now
	}
	c.done++
	if c.ops == 0 || c.done < c.ops {
		c.issue()
		return
	}
	r.pending--
	if r.pending == 0 {
		r.Done.Fire(r.res)
	}
}

// Preload sequentially inserts every key in [0, KeyRange) once — YCSB's
// load phase. It runs in the calling process and records no latency.
func Preload(env *sim.Env, db *imdb.Engine, cfg Config) error {
	pool := valuePool(preloadValuePoolSize, cfg.ValueSize, cfg.Seed^0x10ad)
	for i := int64(0); i < cfg.KeyRange; i++ {
		key := formatKey(cfg.KeySize, i)
		if err := db.Set(env, key, pool[i%int64(len(pool))]); err != nil {
			return err
		}
	}
	return nil
}
