package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU self time per layer. The harness profiles one traced run with
// runtime/pprof and charges every sample to the innermost stack frame
// that belongs to a layer of the table below, so a layer's number is
// the CPU its own code burned — helpers it calls that belong to no
// layer (sort, math, stats, runtime allocation) are charged to it too.
// That is how unexported code (the surrogate, the sinks, the kernel)
// gets measured without editing it. When a boundary function named
// here is renamed or deleted, its samples silently move to the caller's
// layer: update the table with the code.

// gcLayer collects the garbage collector's background mark workers —
// the only GC cost that runs on its own goroutines. Assists and
// allocation stay with the layer that allocated.
const gcLayer = "runtime.gc"

// otherLayer collects samples with no layer frame at all: the harness
// itself, the scheduler, syscalls.
const otherLayer = "other"

// layerRule charges frames whose function name starts with prefix to
// layer. Across all rules the longest matching prefix wins, so a
// package-wide rule can carry exceptions for single functions. Shared
// helpers (fleet's demand sums and slot release, exp's seed derivation)
// are left out on purpose: they belong to whichever layer calls them.
type layerRule struct {
	prefix string
	layer  string
}

const pkg = "pictor/internal/"

var layerRules = []layerRule{
	{pkg + "fleet.NewChurnSource", "fleet.arrival"},
	{pkg + "fleet.(*ChurnSource)", "fleet.arrival"},
	{pkg + "fleet.profileDrawer", "fleet.arrival"},
	{pkg + "fleet.scheduleRate", "fleet.arrival"},
	{pkg + "core.(*churnPortal).Arrive", "fleet.place"},
	{pkg + "fleet.(*Churn).Offer", "fleet.place"},
	{pkg + "fleet.(*Churn).Arrive", "fleet.place"},
	{pkg + "fleet.(*Churn).admit", "fleet.place"},
	{pkg + "fleet.(*Fleet)", "fleet.place"},
	{pkg + "fleet.(*Machine).Fits", "fleet.place"},
	{pkg + "fleet.(*Machine).place", "fleet.place"},
	{pkg + "fleet.(*RoundRobin)", "fleet.place"},
	{pkg + "fleet.LeastLoaded", "fleet.place"},
	{pkg + "fleet.(*BinPack)", "fleet.place"},
	{pkg + "fleet.(*Interference)", "fleet.place"},
	{pkg + "fleet.pairKey", "fleet.place"},
	{pkg + "core.(*churnPortal).Depart", "fleet.depart"},
	{pkg + "fleet.(*Churn).DepartDue", "fleet.depart"},
	{pkg + "core.(*churnPortal).Fault", "fleet.control"},
	{pkg + "core.(*churnPortal).Retry", "fleet.control"},
	{pkg + "core.(*churnPortal).React", "fleet.control"},
	{pkg + "fleet.FaultStream", "fleet.control"},
	{pkg + "fleet.(*Churn).MigrateOff", "fleet.control"},
	{pkg + "fleet.(*Churn).EvictAll", "fleet.control"},
	{pkg + "fleet.(*Churn).RetryDue", "fleet.control"},
	{pkg + "fleet.(*Churn).retrySlot", "fleet.control"},
	{pkg + "fleet.(*Churn).DegradeOne", "fleet.control"},
	{pkg + "fleet.(*Churn).DegradeToFit", "fleet.control"},
	{pkg + "fleet.(*Churn).UpgradeOne", "fleet.control"},
	{pkg + "core.(*surrogateEngine)", "core.surrogate"},
	{pkg + "core.newSurrogateEngine", "core.surrogate"},
	{pkg + "core.surrogate", "core.surrogate"},
	{pkg + "core.", "core.cluster_setup"},
	{pkg + "core.(*Instance).Result", "core.collect"},
	{pkg + "core.(*churnPortal)", "core.collect"},
	{pkg + "core.rollupSink", "core.collect"},
	{pkg + "core.(*memorySink)", "core.collect"},
	{pkg + "core.merge", "core.collect"},
	{pkg + "exp.PoolSummaries", "core.collect"},
	{pkg + "core.(*churnPortal).EngineFor", "engine.kernel"},
	{pkg + "engine.", "engine.kernel"},
	{pkg + "exp.Run", "exp.runner"},
	{pkg + "exp.UnitSeed", "exp.runner"},
	{pkg + "exp.Trial.", "exp.runner"},
	{pkg + "core.(*Cluster).Run", "sim.kernel"},
	{pkg + "sim.", "sim.kernel"},
	{pkg + "sim.(*RNG)", "sim.rng"},
	{pkg + "sim.NewRNG", "sim.rng"},
	{pkg + "sim.First", "sim.rng"},
	{pkg + "sim.first", "sim.rng"},
	{pkg + "sim.fastFirst", "sim.rng"},
	{pkg + "sim.absInt32", "sim.rng"},
	{pkg + "sim.modexp", "sim.rng"},
	{"math/rand.", "sim.rng"},
	{pkg + "app.", "app"},
	{pkg + "scene.", "scene"},
	{pkg + "agent.", "agent"},
	{pkg + "nn.", "nn"},
	{pkg + "tensor.", "nn"},
	{pkg + "codec.", "codec"},
	{pkg + "vnc.", "vnc"},
	{pkg + "x11.", "x11"},
	{pkg + "vgl.", "vgl"},
	{pkg + "gl.", "vgl"},
	{pkg + "trace.", "trace"},
	{pkg + "hw/", "hw"},
	{pkg + "netsim.", "netsim"},
}

// layers lists every reported layer in report order.
var layers = []string{
	"fleet.arrival", "fleet.place", "fleet.depart", "fleet.control",
	"core.surrogate", "core.cluster_setup", "core.collect",
	"engine.kernel", "exp.runner", "sim.kernel", "sim.rng",
	"app", "scene", "agent", "nn", "codec", "vnc", "x11", "vgl",
	"trace", "hw", "netsim", gcLayer, otherLayer,
}

// stackSample is one decoded profile sample: its call stack (innermost
// frame first, inlined calls expanded) and the CPU time it stands for.
type stackSample struct {
	frames []string
	nanos  int64
}

// layerOf returns the layer the innermost layer frame of a stack
// belongs to.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return gcLayer
		}
	}
	for _, f := range frames {
		best := -1
		layer := ""
		for _, r := range layerRules {
			if len(r.prefix) > best && strings.HasPrefix(f, r.prefix) {
				best, layer = len(r.prefix), r.layer
			}
		}
		if layer != "" {
			return layer
		}
	}
	return otherLayer
}

// attribute sums the samples' CPU seconds per layer. Every layer of the
// table has an entry, zero when it took no samples.
func attribute(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.nanos) / 1e9
	}
	return out
}

// decodeProfile reads a gzipped pprof CPU profile as runtime/pprof
// writes it (profile.proto) and returns its samples, valued in CPU
// nanoseconds. Only the fields attribution needs are decoded.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []sample
		strs       []string
		valueTypes []int64                 // string index of each sample value's type
		funcName   = map[uint64]int64{}    // function id → string index
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// CPU profiles carry (samples/count, cpu/nanoseconds) per sample.
	cpu := -1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if n := funcName[fn]; n >= 0 && int(n) < len(strs) {
					frames = append(frames, strs[n])
				}
			}
		}
		out = append(out, stackSample{frames: frames, nanos: s.values[cpu]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; no field the decoder reads uses them.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data set) or
// not (one value v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
