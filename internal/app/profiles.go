package app

import (
	"fmt"

	"pictor/internal/codec"
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/mem"
	"pictor/internal/scene"
)

// Profile is the complete behavioural description of one benchmark:
// its timing, scene dynamics, hardware appetite, compressibility, and
// the input behaviour of a human player. The first six profiles below
// are the paper's Table 2 suite, calibrated to the single-instance
// characterization in §5.1 (utilization, FPS, stage-latency and
// bandwidth ranges); the pictor-bench CLI's fig8 to fig13 experiments
// measure those quantities from the simulation.
// CAD, VV and CZ extend the suite along axes the paper's six do not
// stress. Profiles join the experiment vocabulary via Register.
type Profile struct {
	// Identity (Table 2).
	Name         string // short key: STK, 0AD, RE, D2, IM, ITP, CAD, VV, CZ
	FullName     string
	Genre        string
	IsVR         bool
	ClosedSource bool

	// Display.
	Width, Height int

	// Application-logic timing.
	ALBaseMs     float64
	ALPerInputMs float64
	ALJitter     float64
	// ALComplexityCoupling in (0,1] is the scene-complexity share of
	// the logic cost. Register stamps the documented 0.25 default onto
	// profiles that leave it zero, so the stored profile always carries
	// the value the pipeline runs with (profiles wanting effectively no
	// coupling register a negligible positive value).
	ALComplexityCoupling float64

	// AS (frame hand-off IPC) timing.
	ASBaseMs  float64
	ASPerMBMs float64
	// IPCTax multiplies IPC work (set when containerized).
	IPCTax float64

	// UploadMBPerFrame scales CPU→GPU PCIe traffic (scene data uploads;
	// SuperTuxKart's drastic frame changes make this large).
	UploadMBPerFrame float64

	// Scene dynamics.
	Dynamics scene.Dynamics

	// Hardware appetites.
	GPU gpu.Profile
	Mem mem.Profile
	// AppBackgroundCores is steady engine-thread demand (workers,
	// audio, physics).
	AppBackgroundCores float64
	// VNCBackgroundCores is the proxy's steady demand (encoder helper
	// threads, damage polling).
	VNCBackgroundCores float64
	// VNCMem is the proxy process's memory profile (it contends with
	// the application — §5.2.3 notes proxy/benchmark contention).
	VNCMem mem.Profile

	// Codec behaviour.
	Codec codec.Codec

	// Human reference behaviour.
	HumanReactionMs float64 // mean perception→action latency
	HumanActProb    float64 // probability of acting on a given frame
	// CVLatencyMs / RNNLatencyMs are the intelligent client's inference
	// times on the client machine (Figure 7; MobileNets-class CNN ≈
	// 60–85 ms, LSTM ≈ 2 ms).
	CVLatencyMs  float64
	RNNLatencyMs float64

	// HeavyWeight is the profile's relative draw weight in the "heavy"
	// arrival mix (fleet.MixHeavy). Register stamps weight 1 onto
	// profiles that leave it zero; demanding tenants declare more.
	HeavyWeight int
}

func (p Profile) String() string {
	return fmt.Sprintf("%s (%s, %s)", p.Name, p.FullName, p.Genre)
}

// STK is SuperTuxKart: open-source kart racing. Constant high motion,
// drastic frame-to-frame changes (the paper's CPU→GPU PCIe outlier),
// the most contentious co-runner of Figure 19.
func STK() Profile {
	return Profile{
		Name: "STK", FullName: "SuperTuxKart", Genre: "Racing",
		Width: 1920, Height: 1080,
		ALBaseMs: 9, ALPerInputMs: 0.25, ALJitter: 0.10,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 2.8,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Track, scene.Vehicle, scene.Item},
			SpawnProb:      0.06,
			DespawnProb:    0.05,
			MoveProb:       0.28,
			PoseDrift:      0.12,
			InputStir:      0.35,
			BaseComplexity: 1.0,
			ComplexityVar:  0.4,
			MotionFloor:    0.38,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 7.5, RenderJitter: 0.08,
			BaseL2Miss: 0.34, TexMiss: 0.26, L2Sensitivity: 0.9,
			MemoryMB: 640, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.75, Intensity: 0.95, Sensitivity: 0.80,
			AccessesPerMs: 1100, FootprintMB: 1500,
		},
		AppBackgroundCores: 0.85,
		VNCBackgroundCores: 1.45,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.30, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 6.4, MotionPenalty: 1.3, MsPerMB: 1.00, Jitter: 0.07},
		HumanReactionMs: 210, HumanActProb: 0.22,
		CVLatencyMs: 78, RNNLatencyMs: 1.9,
		HeavyWeight: 3,
	}
}

// ZeroAD is 0 A.D.: open-source real-time strategy. Heavy simulation
// logic, strongly input-driven scene activity (DeskBench's worst case),
// OpenGL 1.3 (no GPU PMU), the least contentious co-runner.
func ZeroAD() Profile {
	return Profile{
		Name: "0AD", FullName: "0 A.D.", Genre: "Real-time Strategy",
		Width: 1920, Height: 1080,
		ALBaseMs: 15, ALPerInputMs: 2.6, ALJitter: 0.13,
		ALComplexityCoupling: 0.75,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.5,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Building, scene.Vehicle, scene.Item, scene.Enemy},
			SpawnProb:      0.010,
			DespawnProb:    0.022,
			MoveProb:       0.05,
			PoseDrift:      0.04,
			InputStir:      1.5,
			BaseComplexity: 1.05,
			ComplexityVar:  0.95,
			MotionFloor:    0.05,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 9.0, RenderJitter: 0.09,
			BaseL2Miss: 0.30, TexMiss: 0.22, L2Sensitivity: 0.5,
			MemoryMB: 420, SupportsPMU: false, // OpenGL 1.3: tools can't read PMUs
		},
		Mem: mem.Profile{
			BaseMissRate: 0.72, Intensity: 0.35, Sensitivity: 0.55,
			AccessesPerMs: 900, FootprintMB: 1900,
		},
		AppBackgroundCores: 0.65,
		VNCBackgroundCores: 1.65,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.28, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 7.0, MotionPenalty: 1.0, MsPerMB: 1.55, Jitter: 0.07},
		HumanReactionMs: 270, HumanActProb: 0.2,
		CVLatencyMs: 82, RNNLatencyMs: 2.1,
		HeavyWeight: 1,
	}
}

// RE is Red Eclipse: open-source arena first-person shooter. Light
// engine (the suite's lowest CPU utilization), quick render passes.
func RE() Profile {
	return Profile{
		Name: "RE", FullName: "Red Eclipse", Genre: "First-person Shooter",
		Width: 1920, Height: 1080,
		ALBaseMs: 4.5, ALPerInputMs: 0.2, ALJitter: 0.09,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.9,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Enemy, scene.Item, scene.Track},
			SpawnProb:      0.05,
			DespawnProb:    0.06,
			MoveProb:       0.22,
			PoseDrift:      0.10,
			InputStir:      0.30,
			BaseComplexity: 0.95,
			ComplexityVar:  0.35,
			MotionFloor:    0.26,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 6.0, RenderJitter: 0.08,
			BaseL2Miss: 0.28, TexMiss: 0.24, L2Sensitivity: 0.6,
			MemoryMB: 380, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.71, Intensity: 0.60, Sensitivity: 0.60,
			AccessesPerMs: 850, FootprintMB: 900,
		},
		AppBackgroundCores: 0.18,
		VNCBackgroundCores: 1.40,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.28, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 7.9, MotionPenalty: 1.15, MsPerMB: 0.95, Jitter: 0.07},
		HumanReactionMs: 190, HumanActProb: 0.26,
		CVLatencyMs: 66, RNNLatencyMs: 1.7,
		HeavyWeight: 1,
	}
}

// D2 is Dota2: closed-source multiplayer online battle arena. The
// suite's CPU hog (many engine worker threads) with a small memory
// footprint; the contention victim studied in Figure 19.
func D2() Profile {
	return Profile{
		Name: "D2", FullName: "Dota2", Genre: "Online Battle Arena",
		ClosedSource: true,
		Width:        1920, Height: 1080,
		ALBaseMs: 11.5, ALPerInputMs: 0.6, ALJitter: 0.11,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.8,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Vehicle, scene.Enemy, scene.Building, scene.Item},
			SpawnProb:      0.04,
			DespawnProb:    0.04,
			MoveProb:       0.16,
			PoseDrift:      0.08,
			InputStir:      0.55,
			BaseComplexity: 1.0,
			ComplexityVar:  0.45,
			MotionFloor:    0.2,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 8.0, RenderJitter: 0.09,
			BaseL2Miss: 0.31, TexMiss: 0.23, L2Sensitivity: 0.7,
			MemoryMB: 700, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.73, Intensity: 0.75, Sensitivity: 0.75,
			AccessesPerMs: 1000, FootprintMB: 600,
		},
		AppBackgroundCores: 1.95,
		VNCBackgroundCores: 1.60,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.30, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 6.5, MotionPenalty: 1.1, MsPerMB: 1.05, Jitter: 0.07},
		HumanReactionMs: 240, HumanActProb: 0.2,
		CVLatencyMs: 74, RNNLatencyMs: 2.0,
		HeavyWeight: 3,
	}
}

// IM is InMind: closed-source VR education/game title. Smooth
// head-tracked scenes, the suite's biggest memory footprint and the
// GPU-cache-miss outlier of Figure 16.
func IM() Profile {
	return Profile{
		Name: "IM", FullName: "InMind", Genre: "VR Education/Game",
		IsVR: true, ClosedSource: true,
		Width: 1920, Height: 1080,
		ALBaseMs: 7.5, ALPerInputMs: 0.15, ALJitter: 0.08,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 1.1,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Target, scene.Item, scene.Panel},
			SpawnProb:      0.025,
			DespawnProb:    0.02,
			MoveProb:       0.10,
			PoseDrift:      0.025, // smooth head tracking
			InputStir:      0.15,
			BaseComplexity: 1.1,
			ComplexityVar:  0.3,
			MotionFloor:    0.22,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 10.0, RenderJitter: 0.08,
			BaseL2Miss: 0.56, TexMiss: 0.30, L2Sensitivity: 0.65,
			MemoryMB: 760, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.74, Intensity: 0.65, Sensitivity: 0.65,
			AccessesPerMs: 1050, FootprintMB: 3900,
		},
		AppBackgroundCores: 0.95,
		VNCBackgroundCores: 1.45,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.28, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 8.0, MotionPenalty: 0.9, MsPerMB: 0.85, Jitter: 0.07},
		HumanReactionMs: 160, HumanActProb: 0.34, // continuous head motion
		CVLatencyMs: 68, RNNLatencyMs: 1.8,
		HeavyWeight: 2,
	}
}

// ITP is IMHOTEP: open-source VR surgical-planning framework. Static
// anatomy scenes with deliberate interactions; a heavyweight encoder
// path (the client-FPS regression case of Figure 22).
func ITP() Profile {
	return Profile{
		Name: "ITP", FullName: "IMHOTEP", Genre: "VR Health",
		IsVR:  true,
		Width: 1920, Height: 1080,
		ALBaseMs: 10, ALPerInputMs: 0.3, ALJitter: 0.09,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.6,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Target, scene.Panel, scene.Item},
			SpawnProb:      0.012,
			DespawnProb:    0.01,
			MoveProb:       0.05,
			PoseDrift:      0.02,
			InputStir:      0.4,
			BaseComplexity: 1.0,
			ComplexityVar:  0.35,
			MotionFloor:    0.12,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 9.0, RenderJitter: 0.08,
			BaseL2Miss: 0.33, TexMiss: 0.21, L2Sensitivity: 0.5,
			MemoryMB: 520, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.72, Intensity: 0.50, Sensitivity: 0.60,
			AccessesPerMs: 900, FootprintMB: 2400,
		},
		AppBackgroundCores: 0.90,
		VNCBackgroundCores: 1.85,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.32, Sensitivity: 0.50,
			AccessesPerMs: 550, FootprintMB: 400,
		},
		Codec:           codec.Codec{BaseRatio: 7.5, MotionPenalty: 0.95, MsPerMB: 1.45, Jitter: 0.07},
		HumanReactionMs: 260, HumanActProb: 0.27, // head motion + tool use
		CVLatencyMs: 70, RNNLatencyMs: 1.9,
		HeavyWeight: 1,
	}
}

// ---------------------------------------------------------------------------
// Extended scenario families (beyond the paper's Table 2)

// CAD is CloudCAD, a cloud CAD/BIM viewer: a huge static assembly the
// user orbits and inspects. It stresses axes the paper's games do not —
// extreme scene complexity and memory footprint with near-zero motion,
// so frames compress superbly while every render pass is expensive.
func CAD() Profile {
	return Profile{
		Name: "CAD", FullName: "CloudCAD", Genre: "CAD Viewer",
		Width: 1920, Height: 1080,
		ALBaseMs: 6, ALPerInputMs: 1.8, ALJitter: 0.08,
		// Traversal and occlusion logic scale with the assembly.
		ALComplexityCoupling: 0.6,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.4, // geometry is resident; uploads are deltas
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.PointCloud, scene.Building, scene.Panel},
			SpawnProb:      0.004,
			DespawnProb:    0.004,
			MoveProb:       0.01,
			PoseDrift:      0.015, // slow deliberate orbiting
			InputStir:      0.9,   // a view manipulation redraws a lot
			BaseComplexity: 1.6,   // the suite's complexity outlier
			ComplexityVar:  0.2,
			MotionFloor:    0.03,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 12.0, RenderJitter: 0.07,
			BaseL2Miss: 0.50, TexMiss: 0.18, L2Sensitivity: 0.75,
			MemoryMB: 1400, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.78, Intensity: 0.55, Sensitivity: 0.70,
			AccessesPerMs: 950, FootprintMB: 5200, // the footprint outlier
		},
		AppBackgroundCores: 0.55,
		VNCBackgroundCores: 1.35,
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.28, Sensitivity: 0.45,
			AccessesPerMs: 500, FootprintMB: 350,
		},
		Codec:           codec.Codec{BaseRatio: 9.5, MotionPenalty: 0.8, MsPerMB: 1.10, Jitter: 0.07},
		HumanReactionMs: 320, HumanActProb: 0.16, // deliberate inspection
		CVLatencyMs: 84, RNNLatencyMs: 2.0,
		HeavyWeight: 2,
	}
}

// VV is VoluPlay, a volumetric-video player: captured performances
// replayed as deforming point-cloud/mesh surfaces. Relentless
// full-frame change makes it the suite's codec-hostile bandwidth
// outlier — the lowest compression ratio and the heaviest CPU→GPU
// upload stream, beyond even SuperTuxKart.
func VV() Profile {
	return Profile{
		Name: "VV", FullName: "VoluPlay", Genre: "Volumetric Video",
		Width: 1920, Height: 1080,
		ALBaseMs: 5, ALPerInputMs: 0.2, ALJitter: 0.09,
		ALComplexityCoupling: DefaultALComplexityCoupling,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 3.6, // per-frame geometry: the new PCIe outlier
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.PointCloud, scene.Cloth, scene.Target},
			SpawnProb:      0.10,
			DespawnProb:    0.10,
			MoveProb:       0.45,
			PoseDrift:      0.30, // every surface deforms every frame
			InputStir:      0.10, // playback-driven, barely input-coupled
			BaseComplexity: 1.2,
			ComplexityVar:  0.25,
			MotionFloor:    0.55, // never still — above STK's 0.38
		},
		GPU: gpu.Profile{
			BaseRenderMs: 8.5, RenderJitter: 0.09,
			BaseL2Miss: 0.45, TexMiss: 0.32, L2Sensitivity: 0.8,
			MemoryMB: 900, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.80, Intensity: 0.85, Sensitivity: 0.70,
			AccessesPerMs: 1200, FootprintMB: 2600,
		},
		AppBackgroundCores: 0.75,
		VNCBackgroundCores: 1.70, // the encoder earns its keep here
		VNCMem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.32, Sensitivity: 0.45,
			AccessesPerMs: 520, FootprintMB: 380,
		},
		Codec:           codec.Codec{BaseRatio: 3.2, MotionPenalty: 1.5, MsPerMB: 1.25, Jitter: 0.07},
		HumanReactionMs: 230, HumanActProb: 0.18,
		CVLatencyMs: 72, RNNLatencyMs: 1.9,
		HeavyWeight: 3,
	}
}

// CZ is CasualZen, casual 2D/UI streaming (card games, dashboards,
// remote desktops): low everything — tiny frames, static panels, an
// idle-happy player. It is the consolidation-friendly filler tenant
// that makes bin-packing interesting: many CZs fit where one Dota2
// does not.
func CZ() Profile {
	return Profile{
		Name: "CZ", FullName: "CasualZen", Genre: "Casual 2D/UI",
		Width: 1280, Height: 720,
		ALBaseMs: 2.5, ALPerInputMs: 0.3, ALJitter: 0.07,
		// UI logic is nearly fixed-cost; a token coupling keeps the
		// explicit (non-defaulted) value honest.
		ALComplexityCoupling: 0.1,
		ASBaseMs:             0.5, ASPerMBMs: 0.13,
		UploadMBPerFrame: 0.15,
		Dynamics: scene.Dynamics{
			Kinds:          []scene.Type{scene.Panel, scene.Item, scene.Target},
			SpawnProb:      0.015,
			DespawnProb:    0.015,
			MoveProb:       0.04,
			PoseDrift:      0, // flat 2D widgets have no viewing angle
			InputStir:      0.5,
			BaseComplexity: 0.5,
			ComplexityVar:  0.15,
			MotionFloor:    0.04,
		},
		GPU: gpu.Profile{
			BaseRenderMs: 2.5, RenderJitter: 0.06,
			BaseL2Miss: 0.20, TexMiss: 0.15, L2Sensitivity: 0.3,
			MemoryMB: 160, SupportsPMU: true,
		},
		Mem: mem.Profile{
			BaseMissRate: 0.55, Intensity: 0.20, Sensitivity: 0.30,
			AccessesPerMs: 400, FootprintMB: 380,
		},
		AppBackgroundCores: 0.12,
		VNCBackgroundCores: 0.90,
		VNCMem: mem.Profile{
			BaseMissRate: 0.50, Intensity: 0.20, Sensitivity: 0.40,
			AccessesPerMs: 420, FootprintMB: 280,
		},
		Codec:           codec.Codec{BaseRatio: 12.0, MotionPenalty: 0.7, MsPerMB: 0.60, Jitter: 0.06},
		HumanReactionMs: 350, HumanActProb: 0.12,
		CVLatencyMs: 55, RNNLatencyMs: 1.5,
		HeavyWeight: 1,
	}
}
