package main

import (
	"fmt"
	"math/rand/v2"

	"creditbus/internal/scenario"
	"creditbus/internal/shard"
)

// Every generated input derives from the --seed argument through these
// streams; the salt keeps the workloads' streams independent, so the same
// seed gives the same inputs and changing one workload's draws leaves the
// others alone.
const (
	saltHot = iota + 1
	saltCold
	saltCampaign
	saltJobs
)

// TuningSeed is the seed the workload sizes were tuned on; HeldOutSeed is a
// seed that was not used while tuning, for checking a claimed gain on
// inputs the change was not fitted to.
const (
	TuningSeed  = 1
	HeldOutSeed = 7919
)

// ueProfiles is cbaload's default co-runner mix.
var ueProfiles = []string{"ue-stream", "ue-web", "ue-voice", "ue-mix"}

func stream(seed uint64, salt, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt<<32|index))
}

// workloadSeed draws a workload ("binary") seed. Population members run
// seed + offset, so draws stay far below the uint64 range.
func workloadSeed(r *rand.Rand) uint64 { return 1 + r.Uint64N(1<<40) }

// hotSpecs is cbaload's default mix: an 8-core matrix TuA at ops 200 against
// a looping population of one UE profile, 4 profiles × 2 variants, one run
// seed each. Population and run seeds come from the benchmark seed.
func hotSpecs(seed uint64) []scenario.Spec {
	r := stream(seed, saltHot, 0)
	const cores = 8
	var specs []scenario.Spec
	for _, p := range ueProfiles {
		for v := 0; v < 2; v++ {
			specs = append(specs, scenario.Spec{
				Name:  fmt.Sprintf("hot-%s-%d", p, v),
				Cores: cores,
				Run:   scenario.RunWorkloads,
				Workloads: []scenario.Workload{
					{Core: 0, Name: "matrix", Ops: 200, Criticality: scenario.CritHigh},
				},
				Populations: []scenario.Population{
					{FromCore: 1, ToCore: cores - 1, Name: p, Loop: true, Seed: workloadSeed(r)},
				},
				Seeds: scenario.Seeds{List: []uint64{r.Uint64()}},
			})
		}
	}
	return specs
}

// coldSpec is request i of run-cold: a 64-core operation-mode platform under
// homogeneous CBA over random permutations, a matrix TuA against 63 looping
// co-runners cycling the UE profiles. Every draw is fresh per request, so no
// two requests share a cache key.
func coldSpec(seed uint64, i int, ops int) scenario.Spec {
	r := stream(seed, saltCold, uint64(i))
	const cores = 64
	ws := []scenario.Workload{{Core: 0, Name: "matrix", Ops: ops, Seed: workloadSeed(r), Criticality: scenario.CritHigh}}
	for c := 1; c < cores; c++ {
		ws = append(ws, scenario.Workload{Core: c, Name: ueProfiles[(c-1)%len(ueProfiles)], Loop: true, Seed: workloadSeed(r)})
	}
	return scenario.Spec{
		Name:      fmt.Sprintf("cold-%d", i),
		Cores:     cores,
		Policy:    "RP",
		Credit:    &scenario.Credit{Kind: "cba"},
		Run:       scenario.RunWorkloads,
		Workloads: ws,
		Seeds:     scenario.Seeds{List: []uint64{r.Uint64()}},
	}
}

// campaignUnits is campaign-1024's seeds per campaign; campaignChunk is its
// units between checkpoints, so each shard of two units saves once.
const (
	campaignUnits = 4
	campaignChunk = 2
)

// campaignSpec is repetition rep of campaign-1024's MBPTA campaign: a
// canrdr TuA against Table I injectors on every other master, homogeneous
// CBA, campaignUnits run seeds. The TuA binary is fixed by the seed; each
// repetition draws fresh run seeds, so no two campaigns share a unit and
// nothing one computed can serve another.
func campaignSpec(seed uint64, sz sizes, rep int) shard.CampaignSpec {
	return shard.CampaignSpec{
		Name: "campaign-1024",
		Scenarios: []scenario.Spec{{
			Name:      "wcet-canrdr",
			Cores:     sz.campCores,
			Credit:    &scenario.Credit{Kind: "cba"},
			Run:       scenario.RunWCET,
			Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: sz.campOps, Seed: workloadSeed(stream(seed, saltCampaign, 0))}},
		}},
		Seeds:  &scenario.Seeds{Base: stream(seed, saltCampaign, uint64(rep)).Uint64(), Runs: campaignUnits},
		Shards: 2,
	}
}

// jobSpec is repetition rep of jobs-tiny's campaign: a 2-core isolation
// canrdr TuA at ops 8 under CBA, so the simulator does almost nothing per
// unit; fresh run seeds per repetition, as for campaignSpec.
func jobSpec(seed uint64, sz sizes, rep int) shard.CampaignSpec {
	return shard.CampaignSpec{
		Name: "jobs-tiny",
		Scenarios: []scenario.Spec{{
			Name:      "iso-canrdr",
			Cores:     2,
			Credit:    &scenario.Credit{Kind: "cba"},
			Run:       scenario.RunIsolation,
			Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: 8, Seed: workloadSeed(stream(seed, saltJobs, 0))}},
		}},
		Seeds:  &scenario.Seeds{Base: stream(seed, saltJobs, uint64(rep)).Uint64(), Runs: sz.jobUnits},
		Shards: 2,
	}
}
