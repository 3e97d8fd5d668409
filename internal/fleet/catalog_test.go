package fleet

import (
	"math"
	"reflect"
	"testing"

	"pictor/internal/app"
)

// TestCatalogVariants: for every registered profile and tier, the
// catalog's variant is DegradedProfile of the base profile, its demand
// is PredictedCPUDemand of that profile bit for bit, and tiers outside
// [0, MaxDegradeTier] clamp — in Variant and AtTier alike — to the
// same handle.
func TestCatalogVariants(t *testing.T) {
	suite := app.Suite()
	cat := NewCatalog(suite)
	if cat.Kinds() != len(suite) {
		t.Fatalf("catalog holds %d kinds, suite %d profiles", cat.Kinds(), len(suite))
	}
	for k, base := range suite {
		for tier := -2; tier <= MaxDegradeTier+2; tier++ {
			v := cat.Variant(k, tier)
			want := DegradedProfile(base, tier)
			if !reflect.DeepEqual(v.Profile, want) {
				t.Fatalf("%s tier %d: variant profile %+v, DegradedProfile %+v", base.Name, tier, v.Profile, want)
			}
			if d := PredictedCPUDemand(&want); math.Float64bits(v.Demand) != math.Float64bits(d) {
				t.Fatalf("%s tier %d: variant demand %v, PredictedCPUDemand %v", base.Name, tier, v.Demand, d)
			}
			clamped := min(max(tier, 0), MaxDegradeTier)
			if v.Kind != k || v.Tier != clamped {
				t.Fatalf("%s tier %d: variant is kind %d tier %d, want kind %d tier %d", base.Name, tier, v.Kind, v.Tier, k, clamped)
			}
			if v != cat.Variant(k, clamped) || cat.Variant(k, 0).AtTier(tier) != v || v.AtTier(clamped) != v {
				t.Fatalf("%s tier %d: Variant and AtTier disagree on the clamped handle", base.Name, tier)
			}
		}
	}
}
