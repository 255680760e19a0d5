// key.go is the single home of request identity: the cache key a
// model description resolves to, the canonical model-key string the
// cluster router (internal/cluster) hashes for key-affinity placement,
// and the coalescing key that decides when two buffered jobs are the
// same job. All three render through one path with wire defaults
// applied, so an omitted field and its explicit default spelling are
// byte-for-byte the same identity everywhere — the server's cache, the
// flight group and the router's rendezvous ring can never disagree
// about which requests are "the same".
package server

import (
	"fmt"

	"cntfet/internal/fettoy"
)

// presetOrDefault normalises an empty wire device preset to
// DeviceDefault, mirroring familyOrDefault: the zero value and the
// explicit "default" spelling name the same device.
func presetOrDefault(preset string) string {
	if preset == "" {
		return DeviceDefault
	}
	return preset
}

// cacheKey identifies one built model. The float fields are the
// post-override (resolved) temperature and Fermi level: two requests
// share a model exactly when they resolve to byte-identical
// parameters, which is the right granularity for a cache
// (nearby-but-different T or EF is a different physical model).
type cacheKey struct {
	family, preset string
	t, ef          float64
}

// String renders the key for spans, logs and the router:
// "family/preset/T=…/EF=…" with resolved (post-override, post-default)
// parameter values.
func (k cacheKey) String() string {
	return fmt.Sprintf("%s/%s/T=%g/EF=%g",
		familyOrDefault(k.family), presetOrDefault(k.preset), k.t, k.ef)
}

// specCacheKey is the one constructor of a cacheKey: family and preset
// defaults applied, overrides resolved against the preset device. Both
// the cache and the coalescing key go through it, so an explicit
// `"family": "model1"` or `"t": 300` and the omitted spelling land on
// the same entry.
func specCacheKey(spec ModelSpec, dev fettoy.Device) cacheKey {
	return cacheKey{
		family: familyOrDefault(spec.Family),
		preset: presetOrDefault(spec.Device),
		t:      dev.T,
		ef:     dev.EF,
	}
}

// Key renders the cache identity a spec resolves to, for logs, spans
// and the cluster router — with the family and preset defaults applied
// and the T/EF overrides resolved, so an omitted family and an
// explicit "model1" (or an omitted T and an explicit 300) report the
// same identity. Unresolvable specs render with their raw override
// values; they are still deterministic, just never cached.
func (m ModelSpec) Key() string {
	dev, err := m.device()
	if err != nil {
		return fmt.Sprintf("%s/%s/T=%g/EF=%v",
			familyOrDefault(m.Family), presetOrDefault(m.Device), m.T, m.EF)
	}
	return specCacheKey(m, dev).String()
}

// RouteKey is the canonical model identity of a decoded job — the
// exact string the server's model cache keys on. The cluster router
// rendezvous-hashes it so every (family, device, T, EF) has one home
// replica; because router and server share this function, the replica
// that receives a key's jobs is the replica whose cache holds that
// key's model. Jobs without a model (invalid — the backend answers
// 400) route by their kind alone, which keeps them deterministic
// without polluting the model keyspace.
func RouteKey(jr JobRequest) string {
	if jr.Model == nil {
		return "invalid/" + jr.Kind
	}
	return jr.Model.Key()
}

// coalesceKey canonicalises a decoded request into its flight-group
// key. Two requests get the same key exactly when they resolve to the
// same engine run: same kind, same resolved model identities (Key()
// strings), same grids and scheduling parameters, with the strategy
// default applied — so semantically identical spellings (explicit
// family vs omitted, explicit preset T vs zero, "auto" vs "")
// coalesce. The key is rendered by the result encoder as the JSON
// object encoding/json would write for those fields (omitempty on all
// but kind, model and strategy); floats print in shortest round-trip
// form, so any differing value changes the key. Stream is deliberately
// absent: streamed responses never enter the flight group.
func coalesceKey(jr JobRequest) (string, error) {
	strategy := jr.Strategy
	if strategy == "" {
		strategy = "auto"
	}
	e := getEncoder()
	defer putEncoder(e)
	e.b = append(e.b, `{"kind":`...)
	e.str(jr.Kind)
	e.b = append(e.b, `,"model":`...)
	e.str(RouteKey(jr))
	if jr.Ref != nil {
		e.b = append(e.b, `,"ref":`...)
		e.str(jr.Ref.Key())
	}
	if len(jr.RefFamily) > 0 {
		e.b = append(e.b, `,"ref_family":`...)
		e.curves(jr.RefFamily)
	}
	e.optFloat(`,"vg":`, jr.VG)
	e.optFloat(`,"vd":`, jr.VD)
	if len(jr.Gates) > 0 {
		e.b = append(e.b, `,"gates":`...)
		e.floats(jr.Gates)
	}
	if len(jr.Drains) > 0 {
		e.b = append(e.b, `,"drains":`...)
		e.floats(jr.Drains)
	}
	e.b = append(e.b, `,"strategy":`...)
	e.str(strategy)
	e.optInt(`,"workers":`, int64(jr.Workers))
	e.optInt(`,"repeat":`, int64(jr.Repeat))
	e.optFloat(`,"ef_sigma":`, jr.EFSigma)
	e.optFloat(`,"diameter_sigma":`, jr.DiameterSigma)
	e.optInt(`,"samples":`, int64(jr.Samples))
	e.optInt(`,"seed":`, jr.Seed)
	e.b = append(e.b, '}')
	if e.err != nil {
		return "", fmt.Errorf("server: coalesce key: %w", e.err)
	}
	return string(e.b), nil
}
