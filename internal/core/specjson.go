package core

// The JSON codec for Spec and Result, and the declarative Experiment
// file format behind `ptsbench exp`.
//
// A Spec is pure data (the engine is a registry name, its knobs are
// string-valued tunables), so it round-trips through JSON: encode,
// decode, Validate — and you have the identical experiment back. The
// codec keeps the wire format human-friendly (durations as "210m",
// distributions and initial states by name, stock device profiles as
// "ssd1"/"ssd2"/"ssd3" with an optional channels × ways override)
// while Result serializes with Go's default layout everywhere else, so
// existing numeric fixtures are untouched.
//
// An Experiment is a Spec template plus sweep lists (engines, read
// fractions, queue depths, scales); Specs expands the cross product
// into runnable cells, each carrying the per-engine tunables block.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// specJSON is the wire format of Spec.
type specJSON struct {
	Name              string            `json:"name,omitempty"`
	Device            *deviceJSON       `json:"device,omitempty"`
	Scale             int64             `json:"scale,omitempty"`
	Engine            string            `json:"engine,omitempty"`
	DatasetFraction   float64           `json:"dataset_fraction,omitempty"`
	ValueBytes        int               `json:"value_bytes,omitempty"`
	ReadFraction      float64           `json:"read_fraction,omitempty"`
	Dist              string            `json:"dist,omitempty"`
	ZipfTheta         float64           `json:"zipf_theta,omitempty"`
	Initial           string            `json:"initial,omitempty"`
	PartitionFraction float64           `json:"partition_fraction,omitempty"`
	QueueDepth        int               `json:"queue_depth,omitempty"`
	Shards            int               `json:"shards,omitempty"`
	Clients           int               `json:"clients,omitempty"`
	Skew              float64           `json:"skew,omitempty"`
	Replicas          int               `json:"replicas,omitempty"`
	ReplMode          string            `json:"repl_mode,omitempty"`
	Duration          string            `json:"duration,omitempty"`
	SampleEvery       string            `json:"sample_every,omitempty"`
	Seed              uint64            `json:"seed,omitempty"`
	Tunables          map[string]string `json:"tunables,omitempty"`
	Backend           string            `json:"backend,omitempty"`
	Dir               string            `json:"dir,omitempty"`
	Fsync             string            `json:"fsync,omitempty"`
}

// deviceJSON is the wire format of DeviceSpec. Stock profiles are
// referenced by short name; anything custom is embedded in full under
// profile_spec.
type deviceJSON struct {
	Profile       string         `json:"profile,omitempty"`
	ProfileSpec   *flash.Profile `json:"profile_spec,omitempty"`
	Channels      int            `json:"channels,omitempty"`
	Ways          int            `json:"ways,omitempty"`
	CapacityBytes int64          `json:"capacity_bytes,omitempty"`
	PageSize      int            `json:"page_size,omitempty"`
	PagesPerBlock int            `json:"pages_per_block,omitempty"`
}

// stockProfile resolves the short profile names of the paper's three
// SSD types.
func stockProfile(name string) (flash.Profile, bool) {
	switch name {
	case "ssd1":
		return flash.ProfileSSD1(), true
	case "ssd2":
		return flash.ProfileSSD2(), true
	case "ssd3":
		return flash.ProfileSSD3(), true
	default:
		return flash.Profile{}, false
	}
}

// stockNameOf recognizes a profile as a stock one modulo its
// channels × ways geometry.
func stockNameOf(p flash.Profile) (string, bool) {
	base := p
	base.Channels, base.Ways = 0, 0
	for _, name := range []string{"ssd1", "ssd2", "ssd3"} {
		stock, _ := stockProfile(name)
		if base == stock {
			return name, true
		}
	}
	return "", false
}

func marshalDevice(d DeviceSpec) *deviceJSON {
	if d == (DeviceSpec{}) {
		return nil
	}
	dj := &deviceJSON{
		CapacityBytes: d.CapacityBytes,
		PageSize:      d.PageSize,
		PagesPerBlock: d.PagesPerBlock,
	}
	if name, ok := stockNameOf(d.Profile); ok {
		dj.Profile = name
		dj.Channels = d.Profile.Channels
		dj.Ways = d.Profile.Ways
	} else if d.Profile != (flash.Profile{}) {
		p := d.Profile
		dj.ProfileSpec = &p
	}
	return dj
}

func unmarshalDevice(dj *deviceJSON) (DeviceSpec, error) {
	if dj == nil {
		return DeviceSpec{}, nil
	}
	d := DeviceSpec{
		CapacityBytes: dj.CapacityBytes,
		PageSize:      dj.PageSize,
		PagesPerBlock: dj.PagesPerBlock,
	}
	switch {
	case dj.ProfileSpec != nil:
		d.Profile = *dj.ProfileSpec
	case dj.Profile != "":
		p, ok := stockProfile(dj.Profile)
		if !ok {
			return d, fmt.Errorf("core: unknown device profile %q (have ssd1, ssd2, ssd3)", dj.Profile)
		}
		d.Profile = p
	}
	// The channels/ways override applies to stock and custom profiles
	// alike (taking precedence over a geometry embedded in
	// profile_spec), so a spec can give any device internal lanes.
	if dj.Channels > 0 || dj.Ways > 0 {
		d.Profile = d.Profile.WithParallelism(dj.Channels, dj.Ways)
	}
	return d, nil
}

// MarshalJSON implements json.Marshaler with the human-friendly wire
// format (durations as strings, names instead of enum ordinals).
func (s Spec) MarshalJSON() ([]byte, error) {
	sj := specJSON{
		Name:              s.Name,
		Device:            marshalDevice(s.Device),
		Scale:             s.Scale,
		Engine:            string(s.Engine),
		DatasetFraction:   s.DatasetFraction,
		ValueBytes:        s.ValueBytes,
		ReadFraction:      s.ReadFraction,
		ZipfTheta:         s.ZipfTheta,
		PartitionFraction: s.PartitionFraction,
		QueueDepth:        s.QueueDepth,
		Shards:            s.Shards,
		Clients:           s.Clients,
		Skew:              s.Skew,
		Seed:              s.Seed,
		Tunables:          s.Tunables,
		Dir:               s.Dir,
		Fsync:             s.Fsync,
	}
	if s.Backend != "" && s.Backend != "sim" {
		sj.Backend = s.Backend
	}
	// Replication fields serialize only when they mean something, so
	// every pre-replication spec document stays byte-identical.
	if s.Replicas > 1 {
		sj.Replicas = s.Replicas
	}
	if s.ReplMode != "" && s.Replicas > 1 {
		sj.ReplMode = s.ReplMode
	}
	if s.Dist != workload.Uniform {
		sj.Dist = s.Dist.String()
	}
	if s.Initial != Trimmed {
		sj.Initial = s.Initial.String()
	}
	if s.Duration != 0 {
		sj.Duration = time.Duration(s.Duration).String()
	}
	if s.SampleEvery != 0 {
		sj.SampleEvery = time.Duration(s.SampleEvery).String()
	}
	return json.Marshal(sj)
}

// decodeStrict parses data into v. Unknown fields are errors: a typo in
// a saved experiment should fail loudly, not silently run the default it
// was trying to override. doc is the document noun for the error text.
func decodeStrict(data []byte, doc string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("core: parsing %s: %w", doc, err)
	}
	return nil
}

// spec converts the wire format to a Spec; doc is the document noun for
// the error text ("spec" or "experiment").
func (sj *specJSON) spec(doc string) (Spec, error) {
	out := Spec{
		Name:              sj.Name,
		Scale:             sj.Scale,
		Engine:            EngineKind(sj.Engine),
		DatasetFraction:   sj.DatasetFraction,
		ValueBytes:        sj.ValueBytes,
		ReadFraction:      sj.ReadFraction,
		ZipfTheta:         sj.ZipfTheta,
		PartitionFraction: sj.PartitionFraction,
		QueueDepth:        sj.QueueDepth,
		Shards:            sj.Shards,
		Clients:           sj.Clients,
		Skew:              sj.Skew,
		Replicas:          sj.Replicas,
		ReplMode:          sj.ReplMode,
		Seed:              sj.Seed,
		Tunables:          sj.Tunables,
		Backend:           sj.Backend,
		Dir:               sj.Dir,
		Fsync:             sj.Fsync,
	}
	var err error
	if out.Device, err = unmarshalDevice(sj.Device); err != nil {
		return out, err
	}
	if sj.Dist != "" {
		if out.Dist, err = workload.ParseDist(sj.Dist); err != nil {
			return out, err
		}
	}
	if sj.Initial != "" {
		if out.Initial, err = ParseInitialState(sj.Initial); err != nil {
			return out, err
		}
	}
	if sj.Duration != "" {
		if out.Duration, err = time.ParseDuration(sj.Duration); err != nil {
			return out, fmt.Errorf("core: parsing %s duration: %w", doc, err)
		}
	}
	if sj.SampleEvery != "" {
		if out.SampleEvery, err = time.ParseDuration(sj.SampleEvery); err != nil {
			return out, fmt.Errorf("core: parsing %s sample_every: %w", doc, err)
		}
	}
	return out, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var sj specJSON
	if err := decodeStrict(data, "spec", &sj); err != nil {
		return err
	}
	out, err := sj.spec("spec")
	if err != nil {
		return err
	}
	*s = out
	return nil
}

// WriteResultsJSON writes results as one indented JSON array; Spec's
// codec keeps the embedded specs declarative, so a result file can be
// re-run by extracting its specs.
func WriteResultsJSON(w io.Writer, results []*Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadResultsJSON parses a WriteResultsJSON file.
func ReadResultsJSON(r io.Reader) ([]*Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var results []*Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, err
	}
	return results, nil
}

// Experiment is the declarative description of an experiment grid: a
// Spec template plus sweep lists. It is what a `ptsbench exp` spec file
// parses into.
type Experiment struct {
	// Name labels the run and prefixes every cell name.
	Name string
	// Base holds the per-cell template (device, dataset, workload,
	// durations, seed). Its Engine/ReadFraction/QueueDepth/Scale are
	// the fallback when the corresponding sweep list is empty.
	Base Spec
	// Engines, ReadFractions, QueueDepths, Scales, ShardCounts,
	// ClientCounts, ReplicaCounts and ReplModes are the sweep axes;
	// Specs expands their cross product. Cells whose client count
	// cannot keep their shard count busy (clients < shards) are skipped
	// rather than rejected, so a rectangular shards × clients grid
	// stays usable; likewise unreplicated cells run once, not once per
	// replication mode.
	Engines       []EngineKind
	ReadFractions []float64
	QueueDepths   []int
	Scales        []int64
	ShardCounts   []int
	ClientCounts  []int
	ReplicaCounts []int
	ReplModes     []string
	// Tunables are per-engine knob overrides: cells of engine E run
	// with Tunables[E].
	Tunables map[EngineKind]map[string]string
}

// experimentJSON is the wire format of Experiment: the spec fields
// flattened to the top level, plural sweep lists beside their singular
// fallbacks, and tunables namespaced per engine (the shallower field
// shadows the spec's flat tunables map).
type experimentJSON struct {
	specJSON
	Engines       []string                     `json:"engines,omitempty"`
	Scales        []int64                      `json:"scales,omitempty"`
	ReadFractions []float64                    `json:"read_fractions,omitempty"`
	QueueDepths   []int                        `json:"queue_depths,omitempty"`
	ShardCounts   []int                        `json:"shard_counts,omitempty"`
	ClientCounts  []int                        `json:"client_counts,omitempty"`
	ReplicaCounts []int                        `json:"replica_counts,omitempty"`
	ReplModes     []string                     `json:"repl_modes,omitempty"`
	Tunables      map[string]map[string]string `json:"tunables,omitempty"`
}

// ParseExperiment parses a declarative experiment file. Unknown fields,
// unknown engines, distributions or initial states are errors.
func ParseExperiment(data []byte) (*Experiment, error) {
	var ej experimentJSON
	if err := decodeStrict(data, "experiment", &ej); err != nil {
		return nil, err
	}
	e := &Experiment{
		Name:          ej.Name,
		ReadFractions: ej.ReadFractions,
		QueueDepths:   ej.QueueDepths,
		Scales:        ej.Scales,
		ShardCounts:   ej.ShardCounts,
		ClientCounts:  ej.ClientCounts,
		ReplicaCounts: ej.ReplicaCounts,
		ReplModes:     ej.ReplModes,
	}
	var err error
	if e.Base, err = ej.spec("experiment"); err != nil {
		return nil, err
	}
	// The document's name labels the experiment; Specs names each cell.
	e.Base.Name = ""
	for _, name := range ej.Engines {
		k, err := ParseEngine(name)
		if err != nil {
			return nil, err
		}
		e.Engines = append(e.Engines, k)
	}
	if len(ej.Tunables) > 0 {
		e.Tunables = make(map[EngineKind]map[string]string, len(ej.Tunables))
		for name, t := range ej.Tunables {
			k, err := ParseEngine(name)
			if err != nil {
				return nil, fmt.Errorf("core: tunables: %w", err)
			}
			e.Tunables[k] = t
		}
	}
	return e, nil
}

// QuickDuration shortens a measured phase the way every -quick mode
// does: a run of over an hour is cut to 60 virtual minutes, a shorter
// one is halved.
func QuickDuration(d sim.Duration) sim.Duration {
	if d > 60*time.Minute {
		return 60 * time.Minute
	}
	return d / 2
}

// orBase is a sweep axis's value list: the list, or only the Base value
// when the list is empty.
func orBase[T any](list []T, base T) []T {
	if len(list) == 0 {
		return []T{base}
	}
	return list
}

// Specs expands the experiment's sweep cross product into validated,
// runnable cells (engines × read fractions × queue depths × scales).
// Empty sweep lists fall back to the Base value for that axis. With
// quick set, each cell's measured phase is shortened by QuickDuration,
// as the figures' -quick mode shortens theirs.
func (e *Experiment) Specs(quick bool) ([]Spec, error) {
	engines := orBase(e.Engines, e.Base.Engine)
	readFracs := orBase(e.ReadFractions, e.Base.ReadFraction)
	queueDepths := orBase(e.QueueDepths, e.Base.QueueDepth)
	scales := orBase(e.Scales, e.Base.Scale)
	shardCounts := orBase(e.ShardCounts, e.Base.Shards)
	clientCounts := orBase(e.ClientCounts, e.Base.Clients)
	replicaCounts := orBase(e.ReplicaCounts, e.Base.Replicas)
	replModes := orBase(e.ReplModes, e.Base.ReplMode)
	name := e.Name
	if name == "" {
		name = "exp"
	}
	var specs []Spec
	for _, eng := range engines {
		for _, rf := range readFracs {
			for _, qd := range queueDepths {
				for _, scale := range scales {
					for _, shards := range shardCounts {
						for _, clients := range clientCounts {
							// An explicit client count below the shard
							// count can't keep every shard busy; drop
							// the cell so rectangular grids expand
							// cleanly (clients == 0 means one client
							// per shard and is always feasible).
							if clients != 0 && clients < shards {
								continue
							}
							for mi, replMode := range replModes {
								for _, replicas := range replicaCounts {
									// An unreplicated cell has no mode:
									// run it once, under the first mode
									// only, so a replicas × modes grid
									// doesn't duplicate its R=1 column.
									if replicas <= 1 && mi > 0 {
										continue
									}
									spec := e.Base
									spec.Engine = eng
									spec.ReadFraction = rf
									spec.QueueDepth = qd
									spec.Scale = scale
									spec.Shards = shards
									spec.Clients = clients
									spec.Replicas = replicas
									spec.ReplMode = replMode
									if replicas <= 1 {
										spec.ReplMode = ""
									}
									if t := e.Tunables[eng]; len(t) > 0 {
										// Clone so cells never share a mutable map.
										spec.Tunables = make(map[string]string, len(t))
										for k, v := range t {
											spec.Tunables[k] = v
										}
									}
									spec, err := spec.Validate()
									if err != nil {
										return nil, err
									}
									spec.Name = fmt.Sprintf("%s %s rf=%g qd=%d x%d",
										name, eng, spec.ReadFraction, spec.QueueDepth, spec.Scale)
									if spec.Shards != 1 || spec.Clients != 1 {
										// Only non-default serving layouts carry
										// the suffix, so historical cell names
										// are untouched.
										spec.Name += fmt.Sprintf(" s=%d c=%d", spec.Shards, spec.Clients)
									}
									if spec.Replicas > 1 {
										spec.Name += fmt.Sprintf(" r=%d %s", spec.Replicas, spec.ReplMode)
									}
									if quick {
										spec.Duration = QuickDuration(spec.Duration)
									}
									specs = append(specs, spec)
								}
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}
