// Package exp is the experiment harness: it assembles full system stacks
// (NAND → FTL → device → I/O path → persistence backend → IMDB engine →
// workload), runs the paper's scenarios, and regenerates every table and
// figure of the evaluation section in the paper's own row format.
//
// Everything is scaled: the paper's 180 GB device / 26 GB dataset / 28 M
// operations become a configurable Scale, with the default small enough to
// run the whole suite in seconds while preserving every ratio that matters
// (dataset:device, WAL-trigger:write-volume, snapshot:dataset).
package exp

import (
	"fmt"
	"strings"

	"github.com/slimio/slimio/internal/baseline"
	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/kernelio"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/ssd"
	"github.com/slimio/slimio/internal/telemetry"
	"github.com/slimio/slimio/internal/vtrace"
)

// BackendKind selects a full storage stack.
type BackendKind int

const (
	// BaselineEXT4: kernel path, ext4 profile, conventional SSD.
	BaselineEXT4 BackendKind = iota
	// BaselineF2FS: kernel path, f2fs profile, conventional SSD (the
	// paper's main baseline).
	BaselineF2FS
	// BaselineF2FSPrio: as BaselineF2FS but with a sync-priority I/O
	// scheduler instead of 'none' (ablation for the §4 scheduler argument).
	BaselineF2FSPrio
	// SlimIOFDP: I/O passthru onto an FDP SSD (the paper's SlimIO).
	SlimIOFDP
	// SlimIOConv: I/O passthru onto a conventional SSD (Figure 4's
	// configuration: SlimIO without FDP).
	SlimIOConv
	// SlimIONoSQPoll: SlimIOFDP with SQPOLL disabled on the Snapshot-Path
	// (ablation: quantify the SQPOLL share of the win).
	SlimIONoSQPoll
	// FDPAwareFS: kernel path on an FDP SSD with an FDP-aware filesystem
	// assigning per-file placement IDs (ablation: GC relief without the
	// syscall relief).
	FDPAwareFS
)

func (k BackendKind) String() string {
	switch k {
	case BaselineEXT4:
		return "baseline-ext4"
	case BaselineF2FS:
		return "baseline-f2fs"
	case BaselineF2FSPrio:
		return "baseline-f2fs-prio"
	case SlimIOFDP:
		return "slimio-fdp"
	case SlimIOConv:
		return "slimio-noFDP"
	case SlimIONoSQPoll:
		return "slimio-noSQPoll"
	case FDPAwareFS:
		return "fdp-aware-fs"
	default:
		return "unknown"
	}
}

// kernelPath reports whether k runs the baseline backend over kernelio (as
// opposed to the SlimIO backend over io_uring passthru).
func (k BackendKind) kernelPath() bool {
	switch k {
	case BaselineEXT4, BaselineF2FS, BaselineF2FSPrio, FDPAwareFS:
		return true
	}
	return false
}

// Scale sizes a scenario. All paper quantities shrink by a common factor.
type Scale struct {
	Name        string
	DeviceBytes int64
	// KeyRange and value sizes define the dataset; ops per repetition and
	// repetitions define the write volume.
	KeyRange  int64
	OpsPerRep int64
	Reps      int
	// WALTriggerBytes starts a WAL-Snapshot (paper: 50–55 GB, ~2 per rep).
	WALTriggerBytes int64
	// SlotBytes sizes each SlimIO snapshot slot.
	SlotBytes int64
	// RPSInterval is the runtime-RPS bucket width.
	RPSInterval sim.Duration
	// ValueSize overrides the workload's value size when non-zero.
	ValueSize int

	// Fault injection (all zero by default: the device stays perfect and
	// every result is bit-identical to a build without the fault subsystem).
	FaultSeed      int64
	ReadErrRate    float64
	ProgramErrRate float64
	EraseErrRate   float64
	// Metrics, when non-nil, collects the fault/retry/retirement counts of
	// every finished cell for the bench summary: the cell runners add each
	// stack's Stats into it on the way out (Stack.addFaultCounters).
	Metrics *metrics.Counter
	// FaultRecorder, when non-nil, is attached to the fault plan before
	// installation so the crash model checker (internal/crashmc) can
	// harvest every device-level operation boundary as a crash-point
	// candidate. A recorder activates an otherwise-zero plan but injects
	// nothing and consumes no randomness.
	FaultRecorder fault.Recorder

	// Parallel bounds how many experiment cells run concurrently (each cell
	// is an independent deterministic simulation; results and output order
	// are identical at any setting). 0 means GOMAXPROCS, 1 forces the
	// serial harness.
	Parallel int

	// Trace, when non-nil, enables virtual-time span tracing: every cell
	// records into its own tracer (labelled by cell) in this registry,
	// threaded through every stack layer from the engine down to the NAND
	// timelines. Nil keeps the hot path allocation-free.
	Trace *vtrace.Registry
	// tracer is the per-cell tracer resolved by observeCell; BuildStack falls
	// back to Trace.Tracer(kind.String()) when a stack is built directly.
	tracer *vtrace.Tracer

	// Telemetry, when non-nil, enables the continuous telemetry plane: every
	// cell samples per-layer gauges (NAND busy time, RU occupancy, ring and
	// writeback queue depths, WAL-buffer fill, pool in-flight counts) on a
	// virtual-time tick into its own telemetry.Cell, labelled like the
	// tracer. Nil keeps every hot path allocation-free.
	Telemetry *telemetry.Registry
}

// SmallScale is the default: ~1/500 of the paper's volume, seconds to run.
func SmallScale() Scale {
	return Scale{
		Name:            "small",
		DeviceBytes:     320 << 20,
		KeyRange:        10_000, // ×4 KiB ≈ 40 MiB dataset
		OpsPerRep:       55_000, // ≈5.5 overwrites per key, as 28M/5.3M
		Reps:            2,
		WALTriggerBytes: 120 << 20, // ~2 WAL-snapshots per rep
		SlotBytes:       28 << 20,
		RPSInterval:     20 * sim.Millisecond,
	}
}

// paperScale reproduces the paper's actual parameters (180 GB device,
// 5.3 M keys, 28 M operations over five repetitions, 52 GB WAL trigger).
// Expect hours of wall time and tens of GB of memory: the simulation holds
// real page bytes.
func paperScale() Scale {
	return Scale{
		Name:            "paper",
		DeviceBytes:     180 << 30,
		KeyRange:        5_300_000,
		OpsPerRep:       5_600_000,
		Reps:            5,
		WALTriggerBytes: 52 << 30,
		SlotBytes:       24 << 30,
		RPSInterval:     sim.Second,
	}
}

// TinyScale is for unit tests of the harness itself.
func TinyScale() Scale {
	return Scale{
		Name:            "tiny",
		DeviceBytes:     64 << 20,
		KeyRange:        1000,
		OpsPerRep:       6000,
		Reps:            1,
		WALTriggerBytes: 8 << 20,
		SlotBytes:       4 << 20,
		RPSInterval:     5 * sim.Millisecond,
	}
}

// ScaleByName resolves a preset by its Name: tiny, small or paper.
func ScaleByName(name string) (Scale, error) {
	presets := []Scale{TinyScale(), SmallScale(), paperScale()}
	names := make([]string, len(presets))
	for i, sc := range presets {
		if sc.Name == name {
			return sc, nil
		}
		names[i] = sc.Name
	}
	return Scale{}, fmt.Errorf("unknown scale %q (valid: %s)", name, strings.Join(names, ", "))
}

// Stack is one assembled storage system: one device, and on it either one
// persistence backend (Backend, with FS or Slim naming its path) or, for a
// multi-tenant stack, the co-located engines' backends listed in Tenants.
type Stack struct {
	Kind BackendKind
	Eng  *sim.Engine
	// Dev is the whole device (device-global stats and telemetry). A
	// single-engine stack's backend sits directly on it.
	Dev     *ssd.Device
	Backend imdb.Backend
	// FS is non-nil for kernel-path stacks.
	FS *kernelio.Filesystem
	// Slim is non-nil for single-engine SlimIO stacks.
	Slim *core.Backend
	// Fault is the device fault plan (crash harnesses also use it to
	// schedule power cuts).
	Fault *fault.Plan
	// Trace is the resolved per-cell tracer (nil when tracing is off).
	Trace *vtrace.Tracer
	// Tenants is non-empty only on a multi-tenant stack; Backend, FS and
	// Slim are nil there.
	Tenants []*Tenant
	// alloc is the PID-lease allocator of a multi-tenant stack on an FDP
	// device (nil otherwise).
	alloc *fdp.PIDAllocator
}

// BuildStack assembles the device and persistence backend for kind.
func BuildStack(eng *sim.Engine, kind BackendKind, sc Scale) (*Stack, error) {
	return BuildStackN(eng, kind, 1, sc)
}

// BuildStackN assembles one device for kind and mounts tenants persistence
// backends on it. One tenant is the ordinary single-engine stack: its backend
// sits directly on Stack.Dev. More than one (SlimIO kinds only) is the
// cloud-consolidation scenario the isolation experiment measures: each
// tenant gets an equal LPA window of the shared device through an
// ssd.Namespace, and on an FDP device an exclusive lease of tenantPIDs
// placement identifiers (the device is sized with MaxPIDs =
// tenants×tenantPIDs). Scale.SlotBytes sizes each tenant's snapshot slots, so
// multi-tenant callers shrink it by the tenant count first. All tenants run
// on the one sim.Engine, so the interleaving is deterministic like any
// single-engine cell.
func BuildStackN(eng *sim.Engine, kind BackendKind, tenants int, sc Scale) (*Stack, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("exp: stack needs at least one tenant, got %d", tenants)
	}
	if tenants > 1 && kind.kernelPath() {
		return nil, fmt.Errorf("exp: %s: multi-tenant stacks mount SlimIO backends only", kind)
	}
	geo := nand.DefaultGeometry(sc.DeviceBytes)
	lat := nand.DefaultLatencies()
	arr, err := nand.New(geo, lat)
	if err != nil {
		return nil, err
	}
	arr.SetClock(eng)
	tr := sc.tracer
	if tr == nil && sc.Trace != nil {
		label := kind.String()
		if tenants > 1 {
			label = PlacementLabel(kind)
		}
		tr = sc.Trace.Tracer(label)
	}
	arr.SetTracer(tr)
	st := &Stack{Kind: kind, Eng: eng, Trace: tr}

	// Install the fault plan only when it can inject something: an absent
	// hook is a strict no-op, keeping fault-free runs bit-identical.
	plan := fault.NewPlan(fault.Config{
		Seed:           sc.FaultSeed,
		ReadErrRate:    sc.ReadErrRate,
		ProgramErrRate: sc.ProgramErrRate,
		EraseErrRate:   sc.EraseErrRate,
		Recorder:       sc.FaultRecorder,
	})
	st.Fault = plan
	if plan.Active() {
		arr.SetFaultHook(plan)
	}

	// One FTL below everything: the conventional baseline device is the same
	// line-based FTL with a single placement stream (FEMU reclaims
	// superblocks spanning all dies; that is what makes mixed lifetimes
	// expensive), so device kind is the only thing placement changes.
	devCfg := fdp.Config{Trace: tr}
	var ftl ssd.FTL
	switch kind {
	case BaselineEXT4, BaselineF2FS, BaselineF2FSPrio, SlimIOConv:
		ftl, err = fdp.NewConventional(arr, devCfg)
	case FDPAwareFS, SlimIOFDP, SlimIONoSQPoll:
		if tenants > 1 {
			devCfg.MaxPIDs = tenants * tenantPIDs
			if st.alloc, err = fdp.NewPIDAllocator(devCfg.MaxPIDs); err != nil {
				return nil, err
			}
		}
		ftl, err = fdp.New(arr, devCfg)
	default:
		return nil, fmt.Errorf("exp: unknown backend kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	front := ssd.Config{Trace: tr}
	st.Dev = ssd.New(ftl, front)

	if kind.kernelPath() {
		prof := kernelio.F2FS()
		if kind == BaselineEXT4 {
			prof = kernelio.EXT4()
		}
		mode := kernelio.SchedNone
		if kind == BaselineF2FSPrio {
			mode = kernelio.SchedSyncPriority
		}
		st.FS = kernelio.NewFilesystem(eng, st.Dev, prof, mode, kernelio.DefaultCosts())
		st.FS.SetTracer(tr)
		if kind == FDPAwareFS {
			st.FS.SetPlacementHint(filePID)
		}
		be, err := baseline.New(st.FS)
		if err != nil {
			return nil, err
		}
		st.Backend = be
	} else {
		cfg := core.Config{
			SlotPages:        sc.SlotBytes / int64(geo.PageSize),
			SnapshotNoSQPoll: kind == SlimIONoSQPoll,
			Trace:            tr,
		}
		if tenants == 1 {
			be, err := core.New(eng, st.Dev, cfg)
			if err != nil {
				return nil, err
			}
			st.Slim = be
			st.Backend = be
		} else if err := st.mountTenants(tenants, cfg, front); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Pool returns the stack's shared page-buffer pool (one per device, owned by
// the NAND array; every layer up to each engine's WAL buffer encodes into it).
func (st *Stack) Pool() *bufpool.Pool {
	return st.Dev.FTL().Array().Pool()
}

// Close releases every pooled segment the stack still holds: the SlimIO
// backends' rings and tail buffers, the kernel path's page cache and staged
// block-layer requests, and the NAND array's stored pages. Teardown only —
// afterwards Pool().InFlight() counts exactly the segments leaked by layers
// above the stack (zero when the engines released their buffers too).
func (st *Stack) Close() {
	if st.Slim != nil {
		st.Slim.Close()
	}
	for _, t := range st.Tenants {
		t.Slim.Close()
	}
	if be, ok := st.Backend.(*baseline.Backend); ok {
		// Releases the chain of a WALAppend frozen by a power cut, then
		// closes the filesystem (Filesystem.Close is idempotent with the
		// call below).
		be.Close()
	}
	if st.FS != nil {
		st.FS.Close()
	}
	st.Dev.FTL().Array().ReleaseStored()
}

// Teardown closes the stack and asserts the data plane quiescent: a non-zero
// pool in-flight count after Close is a leaked reference somewhere on the
// zero-copy write path. Once quiescent the pool itself is closed, handing
// its backing chunks (a device-capacity footprint) to bufpool's process-wide
// chunk cache for the next stack.
func (st *Stack) Teardown() error {
	st.Close()
	if n := st.Pool().InFlight(); n != 0 {
		return fmt.Errorf("%d pooled segments leaked after teardown", n)
	}
	st.Pool().Close()
	return nil
}

// ArmPowerCut schedules a power cut at virtual time at: programs completing
// after it tear, for every tenant at once — they share the device, so they
// share the outage. It installs the fault hook if the builder skipped it (a
// power cut alone activates an otherwise-zero plan).
func (st *Stack) ArmPowerCut(at sim.Time) {
	st.Fault.SchedulePowerCut(at)
	st.Dev.FTL().Array().SetFaultHook(st.Fault)
}

// filePID maps baseline file names to lifetime-class PIDs, mirroring
// SlimIO's assignment for the FDP-aware-filesystem ablation.
func filePID(name string) uint32 {
	switch {
	case strings.HasPrefix(name, "appendonly.wal"):
		return core.PIDWAL
	case name == "dump-wal.rdb" || strings.HasPrefix(name, "dump-wal"):
		return core.PIDWALSnapshot
	case strings.HasPrefix(name, "dump-ondemand"):
		return core.PIDOnDemand
	default:
		return 0
	}
}
