package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
)

// This file is the Params canonicalization contract the serving layer's
// result cache rests on: two semantically equal parameter sets must
// serialize to the same bytes and therefore hash to the same cache key.
// Marshalling after the merge is canonical: merge makes "left blank" and
// "spelled out at the default" the same struct value, and encoding/json
// renders a flat struct in declaration order (it sorts map keys too,
// should a field ever hold a map), so equal values give equal bytes.

// CanonicalParams returns the deterministic serialization of p for cache
// keying: p merged with the scenario's defaults (zero fields filled,
// exactly as Run applies them), as JSON. Two Params that produce the
// same effective run produce identical bytes, and the output round-trips
// through json.Unmarshal back to the merged Params. Values JSON cannot
// carry (NaN, ±Inf) propagate encoding/json's error.
func CanonicalParams(p, defaults Params) ([]byte, error) {
	return json.Marshal(p.merge(defaults))
}

// CacheKey returns the content address of one (scenario, params, seed)
// run: the hex SHA-256 over the scenario name, the seed and the
// canonical parameter serialization. Virtual-clock runs are
// bit-deterministic per effective parameters (pinned by the determinism
// suites), so equal keys imply equal results — the property that makes
// memoizing simulation results correct by construction.
func CacheKey(scenarioName string, p, defaults Params, seed int64) (string, error) {
	canon, err := CanonicalParams(p, defaults)
	if err != nil {
		return "", err
	}
	// name NUL seed NUL params, in one buffer: neither a scenario id nor
	// a decimal holds a NUL, so the three parts cannot run together.
	buf := make([]byte, 0, len(scenarioName)+22+len(canon))
	buf = append(buf, scenarioName...)
	buf = append(buf, 0)
	buf = strconv.AppendInt(buf, seed, 10)
	buf = append(buf, 0)
	buf = append(buf, canon...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
