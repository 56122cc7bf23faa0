// Package simaibench is the public API of the SimAI-Bench reproduction:
// a framework for composing and benchmarking mini-apps of coupled
// AI-simulation workflows, following Tummalapalli et al., "In-Transit
// Data Transport Strategies for Coupled AI-Simulation Workflow Patterns"
// (SC 2025).
//
// The API mirrors the paper's Python package (its Listing 1):
//
//	mgr, info, _ := simaibench.StartBackend(simaibench.NodeLocal, "")
//	defer mgr.Stop()
//
//	w := simaibench.NewWorkflow("demo")
//	w.Register(simaibench.Component{
//		Name: "sim",
//		Body: func(ctx simaibench.Ctx) error {
//			store, _ := simaibench.Connect(info)
//			defer store.Close()
//			sim, _ := simaibench.NewSimulation("sim", cfg,
//				simaibench.SimWithStore(store))
//			sim.Run(100)
//			return sim.StageWrite("key1", data)
//		},
//	})
//	w.Launch(context.Background())
//
// Components: Simulation emulates solvers from configurable kernel
// sequences; AI emulates training with a real feed-forward network;
// ServerManager deploys the four data-transport backends (Redis,
// DragonHPC-style dictionary, node-local, file system); the
// DataStore client exposes the uniform stage_write / stage_read /
// poll_staged_data / clean_staged_data interface over all of them.
//
// This file is that vocabulary. The rest of the package is what the
// programs under examples/ call and nothing more (a test holds it to
// that): RunOneToOne runs the paper's one-to-one workflow — co-located
// solver and trainer, the trainer steering the solver to stop — or, with
// an Ensemble, its many-to-one workflow, on the real stack, on a virtual
// or the wall clock; RunScenario runs any
// registered experiment of the evaluation (and ReportResults renders
// it); RunScaleOutChecked with Aurora/CoSchedule measures single
// multi-tenant points on the simulated cluster.
package simaibench

import (
	"simaibench/internal/ai"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/simulation"
	"simaibench/internal/workflow"
)

// Data-transport backends (the paper's four).
const (
	Redis      = datastore.Redis
	Dragon     = datastore.Dragon
	NodeLocal  = datastore.NodeLocal
	FileSystem = datastore.FileSystem
)

// Backend identifies a data-transport implementation.
type Backend = datastore.Backend

// ParseBackend converts a CLI string ("redis", "dragon", "node-local",
// "filesystem") to a Backend.
func ParseBackend(s string) (Backend, error) { return datastore.ParseBackend(s) }

// Backends lists all four backends.
func Backends() []Backend { return datastore.Backends() }

// Store is the uniform data-transport client API.
type Store = datastore.Store

// ClientInfo describes a running deployment for clients.
type ClientInfo = datastore.ClientInfo

// ServerManager deploys and tears down data-staging backends.
type ServerManager = datastore.ServerManager

// ErrNotStaged reports a read of a key with no staged value.
var ErrNotStaged = datastore.ErrNotStaged

// Connect opens a client store against a running deployment.
func Connect(info ClientInfo) (Store, error) { return datastore.Connect(info) }

// StartBackend deploys a backend with default sizing.
func StartBackend(b Backend, baseDir string) (*ServerManager, ClientInfo, error) {
	return datastore.StartBackend(b, baseDir)
}

// Workflow is the orchestration layer: registered components with an
// explicit dependency DAG.
type Workflow = workflow.Workflow

// Component is one workflow node.
type Component = workflow.Component

// Ctx is passed to component bodies.
type Ctx = workflow.Ctx

// Launch types for components.
const (
	Local  = workflow.Local
	Remote = workflow.Remote
)

// NewWorkflow returns an empty workflow; its components run on the wall
// clock.
func NewWorkflow(name string) *Workflow { return workflow.New(name) }

// Simulation emulates a solver component.
type Simulation = simulation.Simulation

// SimulationConfig is the JSON-configurable kernel sequence (Listing 2).
type SimulationConfig = config.SimulationConfig

// KernelSpec configures one kernel of a simulation.
type KernelSpec = config.KernelSpec

// DistSpec is a fixed-or-stochastic run_time / run_count parameter.
type DistSpec = config.DistSpec

// NewSimulation compiles a configuration into a runnable component.
func NewSimulation(name string, cfg SimulationConfig, opts ...simulation.Option) (*Simulation, error) {
	return simulation.New(name, cfg, opts...)
}

// Simulation options.
var (
	SimWithStore     = simulation.WithStore
	SimWithComm      = simulation.WithComm
	SimWithSeed      = simulation.WithSeed
	SimWithTimeScale = simulation.WithTimeScale
)

// ParseSimulationConfig decodes a Listing-2-style JSON document.
func ParseSimulationConfig(data []byte) (SimulationConfig, error) {
	return config.ParseSimulation(data)
}

// AI emulates a training component with a real feed-forward network.
type AI = ai.Trainer

// AIConfig configures an AI component.
type AIConfig = config.AIConfig

// NewAI builds a trainer.
func NewAI(name string, cfg AIConfig, opts ...ai.Option) (*AI, error) {
	return ai.New(name, cfg, opts...)
}

// AI options.
var (
	AIWithStore     = ai.WithStore
	AIWithTimeScale = ai.WithTimeScale
)

// EncodeFloat64s / DecodeFloat64s are the staging wire format for
// training arrays.
var (
	EncodeFloat64s = ai.EncodeFloat64s
	DecodeFloat64s = ai.DecodeFloat64s
)
