// Package disco is the public facade of the DISCO reproduction: a
// heterogeneous distributed database mediator with an extensible,
// blending cost model, after "Leveraging Mediator Cost Models with
// Heterogeneous Data Sources" (Naacke, Gardarin, Tomasic; ICDE 1998).
//
// A deployment is one Mediator plus any number of data sources exposed
// through wrappers. Registration (paper Figure 1) uploads each wrapper's
// schema, statistics and cost rules; queries (paper Figure 2) are parsed,
// optimized against the blended cost model, and executed across the
// sources, each execution metering its own virtual time:
//
//	m, _ := disco.NewMediator(disco.DefaultConfig())
//	store := disco.OpenObjectStore(m, disco.DefaultObjectStoreConfig())
//	... create collections, load data ...
//	m.Register(disco.NewObjectWrapper("objects", store))
//	res, _ := m.Query(`SELECT name FROM Employee WHERE salary > 1000`)
//
// The facade re-exports the user-facing surface of the internal packages;
// in-tree tools and experiments may also import those packages directly.
package disco

import (
	"disco/internal/core"
	"disco/internal/engine"
	"disco/internal/feedback"
	"disco/internal/filestore"
	"disco/internal/mediator"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// Mediator is the running mediator instance; see mediator.Mediator.
type Mediator = mediator.Mediator

// Config configures a mediator deployment.
type Config = mediator.Config

// Result is a query answer with its measured virtual response time.
type Result = engine.Result

// FeedbackStore persists learned execution-feedback corrections; see
// Config.FeedbackStore.
type FeedbackStore = feedback.Store

// NewFeedbackFileStore returns a FeedbackStore backed by a JSON snapshot
// file, so a mediator's learned corrections survive restarts.
func NewFeedbackFileStore(path string) FeedbackStore { return feedback.NewFileStore(path) }

// Row is one result tuple.
type Row = types.Row

// Constant is a polymorphic value (the paper's Constant object).
type Constant = types.Constant

// Schema describes result rows.
type Schema = types.Schema

// Wrapper is the data-source interface of the registration and query
// phases.
type Wrapper = wrapper.Wrapper

// Network models per-wrapper communication links.
type Network = netsim.Network

// Link is one wrapper's latency/bandwidth profile.
type Link = netsim.Link

// Store types of the three built-in source classes.
type (
	// ObjectStore is the ObjectStore-like simulated object database.
	ObjectStore = objstore.Store
	// RelationalStore is the heap-file relational engine.
	RelationalStore = relstore.Store
	// FileStore holds flat record files.
	FileStore = filestore.Store
)

// Configs of the built-in stores.
type (
	// ObjectStoreConfig sets object-store physical and timing
	// parameters.
	ObjectStoreConfig = objstore.Config
	// RelationalStoreConfig sets relational-store parameters.
	RelationalStoreConfig = relstore.Config
	// FileStoreConfig sets file-source parameters.
	FileStoreConfig = filestore.Config
)

// MediatorStats is the mediator's serving-counter snapshot (plan cache,
// re-prepares, admission shedding); see Mediator.Stats.
type MediatorStats = mediator.Stats

// Prepared is a bound and optimized query; see Mediator.Prepare and
// Mediator.ExecutePlan.
type Prepared = mediator.Prepared

// ErrOverloaded is returned when admission control sheds a query; see
// Config.MaxInFlight.
var ErrOverloaded = mediator.ErrOverloaded

// ErrStalePlan is returned for a prepared plan whose federation changed
// and which carries no SQL text to re-prepare from.
var ErrStalePlan = mediator.ErrStalePlan

// NewMediator builds an empty mediator deployment.
func NewMediator(cfg Config) (*Mediator, error) { return mediator.New(cfg) }

// DefaultConfig enables wrapper cost rules and history recording.
func DefaultConfig() Config { return mediator.DefaultConfig() }

// DefaultObjectStoreConfig returns the paper's ObjectStore constants
// (4096-byte pages, 96 % fill, 25 ms/page, 9 ms/object).
func DefaultObjectStoreConfig() ObjectStoreConfig { return objstore.DefaultConfig() }

// DefaultRelationalStoreConfig returns the relational source profile.
func DefaultRelationalStoreConfig() RelationalStoreConfig { return relstore.DefaultConfig() }

// DefaultFileStoreConfig returns the flat-file source profile.
func DefaultFileStoreConfig() FileStoreConfig { return filestore.DefaultConfig() }

// OpenObjectStore creates an object store for the mediator's federation.
func OpenObjectStore(m *Mediator, cfg ObjectStoreConfig) *ObjectStore {
	return objstore.Open(cfg)
}

// OpenRelationalStore creates a relational store for the mediator's
// federation.
func OpenRelationalStore(m *Mediator, cfg RelationalStoreConfig) *RelationalStore {
	return relstore.Open(cfg)
}

// OpenFileStore creates a file store for the mediator's federation.
func OpenFileStore(m *Mediator, cfg FileStoreConfig) *FileStore {
	return filestore.Open(cfg)
}

// NewObjectWrapper exposes an object store to the mediator under a
// registered name. The wrapper exports full statistics and Yao-based cost
// rules (the paper's Figure 13).
func NewObjectWrapper(name string, s *ObjectStore) *wrapper.ObjWrapper {
	return wrapper.NewObjWrapper(name, s)
}

// NewRelationalWrapper exposes a relational store; its rules describe
// hash-probe equality access and range scans without index support.
func NewRelationalWrapper(name string, s *RelationalStore) *wrapper.RelWrapper {
	return wrapper.NewRelWrapper(name, s)
}

// NewFileWrapper exposes a file store; it exports neither statistics nor
// rules, exercising the mediator's pure generic model.
func NewFileWrapper(name string, s *FileStore) *wrapper.FileWrapper {
	return wrapper.NewFileWrapper(name, s)
}

// NewStaticWrapper builds a wrapper declared by an IDL interface file
// (paper §3): interfaces with cardinality sections and cost sections. Use
// DeclareExtent/DeclareAttribute for the hand-written statistics and Load
// for the rows.
func NewStaticWrapper(name, idlSrc string) (*wrapper.StaticWrapper, error) {
	return wrapper.NewStaticWrapper(name, idlSrc)
}

// ExtentStats is a collection's exported extent triplet (CountObject,
// TotalSize, ObjectSize).
type ExtentStats = stats.ExtentStats

// AttributeStats is an attribute's exported statistics (Indexed,
// Clustered, CountDistinct, Min, Max).
type AttributeStats = stats.AttributeStats

// Field builds a schema field.
func Field(collection, name string, kind types.Kind) types.Field {
	return types.Field{Collection: collection, Name: name, Type: kind}
}

// NewSchema builds a row schema.
func NewSchema(fields ...types.Field) *Schema { return types.NewSchema(fields...) }

// The value kinds of schema fields.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
)

// Value constructors.
var (
	// Int builds an integer constant.
	Int = types.Int
	// Float builds a floating-point constant.
	Float = types.Float
	// Str builds a string constant.
	Str = types.Str
	// Bool builds a boolean constant.
	Bool = types.Bool
)

// AllVars lists the cost-model result variables in evaluation order
// (CountObject, ObjectSize, TotalSize, TimeFirst, TotalTime, TimeNext).
func AllVars() []string { return core.AllVars() }
