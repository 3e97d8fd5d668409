package fleet

import "pictor/internal/app"

// Catalog holds one trial's workload set at every brown-out tier, with
// each variant's degraded profile and predicted demand computed once.
// Sessions, machines and policies carry *Variant handles into it, and
// per-workload tables index by Kind. Its variants never change; its one
// mutable part is bin-packing's cache of table ids (see ids), so a
// catalog, like the fleet its handles are placed on, belongs to one
// trial.
type Catalog struct {
	variants []Variant // kind k at tier t is variants[k*tiers+t]
	table    *Interference
	tableGen uint64
	tableIDs []int // each kind's id in table at tableGen, -1 if unknown
}

const tiers = MaxDegradeTier + 1

// Variant is one profile of a catalog at one brown-out tier: Profile is
// DegradedProfile(base, Tier) and Demand its PredictedCPUDemand. Kind
// is the base profile's index in the catalog's suite, shared by its
// tiers.
type Variant struct {
	Profile    app.Profile
	Demand     float64
	Kind, Tier int
	cat        *Catalog
}

// NewCatalog builds the catalog of suite: kind k is suite[k].
func NewCatalog(suite []app.Profile) *Catalog {
	c := &Catalog{variants: make([]Variant, len(suite)*tiers)}
	for i := range c.variants {
		v := &c.variants[i]
		v.Kind, v.Tier, v.cat = i/tiers, i%tiers, c
		v.Profile = DegradedProfile(suite[v.Kind], v.Tier)
		v.Demand = PredictedCPUDemand(&v.Profile)
	}
	return c
}

// Kinds reports how many profiles the catalog holds.
func (c *Catalog) Kinds() int { return len(c.variants) / tiers }

// Variant returns kind's variant at tier, clamped like DegradedProfile.
func (c *Catalog) Variant(kind, tier int) *Variant {
	return &c.variants[kind*tiers+min(max(tier, 0), MaxDegradeTier)]
}

// AtTier returns v's profile at another tier.
func (v *Variant) AtTier(tier int) *Variant { return v.cat.Variant(v.Kind, tier) }

// ids returns each kind's id in it, resolving the kinds' names only
// when it or its generation differs from the last call's.
func (c *Catalog) ids(it *Interference) []int {
	if c.table != it || c.tableGen != it.gen {
		c.table, c.tableGen, c.tableIDs = it, it.gen, c.tableIDs[:0]
		for k := 0; k < c.Kinds(); k++ {
			id, ok := it.ids[c.variants[k*tiers].Profile.Name]
			if !ok {
				id = -1
			}
			c.tableIDs = append(c.tableIDs, id)
		}
	}
	return c.tableIDs
}
