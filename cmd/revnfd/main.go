// Command revnfd serves online admission decisions over HTTP. It wraps
// one paper scheduler (Algorithm 1, Algorithm 2, or a baseline) behind
// the concurrent admission engine in internal/serve: a bounded ingest
// queue, a real-time slot clock that expires placements and returns
// their capacity, and a Prometheus /metrics endpoint.
//
// Usage:
//
//	revnfd -addr :8080 -algorithm pd -scheme onsite -slot 1s
//	revnfd -addr :8080 -algorithm pd -scheme offsite -topology geant -cloudlets 10
//	revnfd -instance trace.json -algorithm greedy -scheme onsite
//	revnfd -trace 1024 -trace-sample 1 -pprof   # decision traces + profiling
//	revnfd -chaos -chaos-seed 7 -slot 500ms     # failure injection + SLO-tracked repair
//	revnfd -horizon-mode rolling -horizon 64    # continuous operation: a 64-slot rolling window
//	revnfd -stream-listen :8081                 # streaming ingest (NDJSON or binary frames)
//
// The network is drawn from the same generator as the simulators, so a
// load generator started with the same -topology/-cloudlets/-seed flags
// replays requests against the network the daemon is serving. SIGINT or
// SIGTERM begins a graceful shutdown that drains queued admissions
// before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"revnf"
	"revnf/internal/chaos"
	"revnf/internal/core"
	"revnf/internal/experiments"
	"revnf/internal/serve"
	"revnf/internal/trace"
	"revnf/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "revnfd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("revnfd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		streamAddr  = fs.String("stream-listen", "", "streaming ingest listen address (NDJSON or binary frames on a persistent connection); empty disables")
		algorithm   = fs.String("algorithm", "pd", "scheduler: pd|raw|greedy|firstfit|random")
		scheme      = fs.String("scheme", "onsite", "redundancy scheme: onsite|offsite|shared")
		poolSize    = fs.Int("pool-size", 0, "shared scheme: requests per pooled backup instance (0 = default)")
		topo        = fs.String("topology", "", "embedded topology name")
		cloudlets   = fs.Int("cloudlets", 0, "cloudlet count")
		horizon     = fs.Int("horizon", 0, "time horizon T in slots (rolling mode: the window width W)")
		horizonMode = fs.String("horizon-mode", "fixed", "horizon mode: fixed (serve [1,T] and stop admitting) or rolling (a W-slot window follows the clock; admit forever)")
		slot        = fs.Duration("slot", time.Second, "wall-clock duration of one slot (0 = frozen clock)")
		queue       = fs.Int("queue", serve.DefaultQueueSize, "bounded ingest queue size")
		workers     = fs.Int("workers", 1, "decision concurrency: worker tokens, each deciding one request (or one streamed batch) at a time")
		seed        = fs.Int64("seed", 1, "network generation seed")
		instance    = fs.String("instance", "", "load instance JSON providing the network instead of generating")
		drain       = fs.Duration("drain", 10*time.Second, "graceful shutdown budget")
		traceCap    = fs.Int("trace", 0, "decision-trace ring capacity; 0 disables tracing")
		traceSample = fs.Int("trace-sample", 1, "trace one in N requests (1 = every request)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		chaosOn     = fs.Bool("chaos", false, "enable the failure runtime: seeded chaos injection, repair, SLO accounting")
		chaosSeed   = fs.Int64("chaos-seed", 0, "chaos injection seed (0 = derive from -seed)")
		chaosCMTTR  = fs.Float64("chaos-cloudlet-mttr", 4, "mean slots a failed cloudlet stays down")
		chaosIMTTR  = fs.Float64("chaos-instance-mttr", 2, "mean slots a failed instance stays down")
		repairTries = fs.Int("repair-attempts", 3, "repair attempts per failure episode before a placement degrades")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var rolling bool
	switch *horizonMode {
	case "fixed":
	case "rolling":
		rolling = true
	default:
		return fmt.Errorf("unknown -horizon-mode %q (want fixed|rolling)", *horizonMode)
	}

	// The daemon serves the network alone: one request is the generator's
	// minimum, and the network does not depend on the request count.
	inst, err := experiments.LoadOrGenerate(*instance, *topo, *cloudlets, 1, *horizon, *seed)
	if err != nil {
		return err
	}
	var store *trace.Store
	var rec trace.Recorder
	if *traceCap > 0 {
		store = trace.NewStore(*traceCap)
		rec = trace.NewSampling(store, *traceSample)
	}
	sched, allowViolations, err := buildScheduler(*algorithm, *scheme, *poolSize, inst, *seed, rec)
	if err != nil {
		return err
	}
	var inj *chaos.Injector
	if *chaosOn {
		cseed := *chaosSeed
		if cseed == 0 {
			cseed = *seed
		}
		// The injector's true rates default to the catalog, so the fleet
		// fails at exactly the reliability the scheduler prices against.
		inj, err = chaos.New(chaos.Config{
			Network:      inst.Network,
			CloudletMTTR: *chaosCMTTR,
			InstanceMTTR: *chaosIMTTR,
			Seed:         cseed,
		})
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	engine, err := serve.New(serve.Config{
		Network:         inst.Network,
		Scheduler:       sched,
		Horizon:         inst.Horizon,
		Rolling:         rolling,
		QueueSize:       *queue,
		Workers:         *workers,
		SlotDuration:    *slot,
		AllowViolations: allowViolations,
		Traces:          store,
		Recorder:        rec,
		Chaos:           inj,
		RepairAttempts:  *repairTries,
	})
	if err != nil {
		return err
	}
	if *workers > 1 && engine.Workers() == 1 {
		fmt.Fprintf(out, "revnfd: scheduler %s does not support concurrent proposals; deciding with one worker token\n", sched.Name())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := serve.NewHandler(engine)
	if *pprofOn {
		handler = withPprof(handler)
	}
	srv := &http.Server{Handler: handler}
	mode := ""
	if inj != nil {
		mode = ", chaos on"
	}
	fmt.Fprintf(out, "revnfd: %s/%s over %d cloudlets, horizon %d (%s), slot %s, workers %d%s, listening on http://%s\n",
		sched.Name(), sched.Scheme(), len(inst.Network.Cloudlets), inst.Horizon, *horizonMode, *slot, engine.Workers(), mode, ln.Addr())

	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(ln) }()

	var stream *serve.StreamServer
	if *streamAddr != "" {
		sln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			return fmt.Errorf("stream listen: %w", err)
		}
		stream = serve.NewStreamServer(engine)
		fmt.Fprintf(out, "revnfd: streaming ingest (ndjson, frame) listening on %s\n", sln.Addr())
		go func() {
			if err := stream.Serve(sln); err != nil {
				errc <- fmt.Errorf("stream serve: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "revnfd: shutting down (draining for up to %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections and wait for in-flight handlers, then
	// drain the engine's queued admissions.
	serr := srv.Shutdown(sctx)
	if stream != nil {
		if err := stream.Close(); err != nil {
			return fmt.Errorf("close stream listener: %w", err)
		}
	}
	if err := engine.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain engine: %w", err)
	}
	if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	s := engine.Stats()
	fmt.Fprintf(out, "revnfd: served %d admissions, %d rejections, revenue %.2f\n",
		s.Admitted, s.RejectedTotal(), s.Revenue)
	return nil
}

// buildScheduler maps the -algorithm/-scheme flags onto the public
// functional-options constructor. The scheme spelling is whatever
// core.ParseScheme accepts (one parser for flags, JSON, and wire bytes);
// the algorithm values are the revnf.Algorithm constants verbatim.
func buildScheduler(algorithm, scheme string, poolSize int, inst *workload.Instance, seed int64, rec trace.Recorder) (core.Scheduler, bool, error) {
	sch, err := core.ParseScheme(scheme)
	if err != nil {
		return nil, false, fmt.Errorf("-scheme: %w", err)
	}
	alg := revnf.Algorithm(algorithm)
	if !alg.Valid() {
		return nil, false, fmt.Errorf("unknown -algorithm %q (want pd|raw|greedy|firstfit|random)", algorithm)
	}
	if poolSize < 0 {
		return nil, false, fmt.Errorf("-pool-size %d: want a positive pool size, or 0 for the default", poolSize)
	}
	opts := []revnf.SchedulerOption{
		revnf.WithAlgorithm(alg),
		revnf.WithHorizon(inst.Horizon),
		revnf.WithRecorder(rec),
		revnf.WithRNG(rand.New(rand.NewSource(seed))),
		revnf.WithSharedPoolSize(poolSize), // 0 keeps the default
	}
	s, err := revnf.NewScheduler(inst.Network, sch, opts...)
	if err != nil {
		return nil, false, err
	}
	return s, alg.AllowsViolations(), nil
}

// withPprof mounts the net/http/pprof handlers beside the API mux. Opt-in
// via -pprof: profiling endpoints expose heap contents and timing oracles,
// so they stay off by default.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}
