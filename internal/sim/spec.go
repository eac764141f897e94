package sim

import (
	"fmt"
	"maps"

	"bimodal/internal/dramcache"
	"bimodal/internal/spec"
)

// OptionsForSpec translates a run spec into sim.Options. Workers is left
// zero (serial): parallelism is an execution concern the spec — and
// therefore the result hash — deliberately cannot express; callers set it
// separately.
func OptionsForSpec(rs spec.RunSpec) Options {
	return Options{
		AccessesPerCore: rs.Options.AccessesPerCore,
		WarmupPerCore:   rs.Options.WarmupPerCore,
		Seed:            rs.Seed,
		CacheBytes:      rs.Options.CacheBytes,
		CacheDivisor:    rs.Options.CacheDivisor,
		PrefetchN:       rs.Options.Prefetch,
	}
}

// FactoryForSpec returns the factory a run of the spec uses; it is the one
// place a scheme name and params become a factory. The plain "bimodal"
// scheme gets the run-length-scaled core parameters (ScaledCoreParams);
// presets and baselines build with their paper defaults, so an ablation
// that should be scaled is spelled as "bimodal" plus family params. Spec
// params overlay either way, so geometry overrides compose with the
// scaling.
//
// Only the scheme, its params and the run length shape the factory. The
// mix contributes its core count, passed as cores, and is not validated
// here: callers resolve it themselves (workloads.MixForSpec), and the
// library facade runs unregistered mixes.
func FactoryForSpec(rs spec.RunSpec, cores int) (Factory, error) {
	d, err := spec.Lookup(rs.Scheme)
	if err != nil {
		return nil, err
	}
	if err := d.CheckParams(rs.Params); err != nil {
		return nil, err
	}
	opts, err := rs.Options.Canonical()
	if err != nil {
		return nil, err
	}
	// Zero means "default", exactly as if the key were absent; dropping
	// it keeps a preset's own value from being overridden.
	params := maps.Clone(rs.Params)
	maps.DeleteFunc(params, func(_ string, v int64) bool { return v == 0 })
	scaled := d.Name == "bimodal"
	return func(cfg dramcache.Config) dramcache.Scheme {
		bc := spec.BuildConfig{Cache: cfg}
		if scaled {
			p := ScaledCoreParams(cfg.CacheBytes, cores, opts.AccessesPerCore)
			bc.CoreParams = &p
		}
		s, err := d.New(bc, params)
		if err != nil {
			// The params passed their schema and cross checks above; a
			// build failure here is a bug.
			panic(fmt.Sprintf("sim: building %s from validated spec: %v", d.Name, err))
		}
		return s
	}, nil
}
