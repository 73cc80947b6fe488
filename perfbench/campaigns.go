package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"creditbus/internal/scenario"
	"creditbus/internal/service"
	"creditbus/internal/shard"
)

// checkReport compares an encoded report against shard.Reference, the
// single-process execution of the same campaign.
func checkReport(camp *shard.Campaign, got []byte) error {
	ref, err := shard.Reference(camp, Workers)
	if err != nil {
		return err
	}
	want, err := ref.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from shard.Reference\ngot:  %s\nwant: %s", got, want)
	}
	return nil
}

// reportCycles is the sum of a report's per-unit simulated cycles. The
// report's mean is Sum/N in float64; for sums below 2⁵¹ cycles N·mean
// rounds back to the exact sum.
func reportCycles(rep shard.Report) int64 {
	return int64(rep.WallCycles.Mean*float64(rep.WallCycles.N) + 0.5)
}

// outcome is one campaign's merged report, and what frees the files the
// campaign left behind.
type outcome struct {
	report  shard.Report
	discard func()
}

// checkedReps is how many campaigns, counted from the first, are checked
// against shard.Reference and make up the digest. A fixed prefix keeps the
// digest independent of how many campaigns a window fits.
const checkedReps = 2

// repeated runs one campaign per operation, each with fresh run seeds:
// campaign-1024 through shard.Runner, jobs-tiny through the job API.
type repeated struct {
	b    *bench
	spec func(rep int) shard.CampaignSpec
	exec func(cs shard.CampaignSpec, req, root int64, tr *tracer) (outcome, error)
	// probe is the per-layer probe, given the first campaign's spec.
	probe func(tr *tracer, m metrics, first shard.CampaignSpec) error
	stop  func()
	rep   int
	kept  []shard.Report // reports of the checked campaigns
}

func (r *repeated) close() {
	if r.stop != nil {
		r.stop()
	}
}

func (r *repeated) loop(deadline time.Time, rec *recorder, tr *tracer) {
	for {
		r.rep++
		req := int64(r.rep)
		start := time.Now()
		root := tr.open("campaign", 0, req)
		out, err := r.exec(r.spec(r.rep), req, root, tr)
		tr.close(root)
		d := time.Since(start)
		if out.discard != nil {
			out.discard()
		}
		if err != nil {
			rec.fail(err, r.b.log)
		} else {
			if len(r.kept) < checkedReps && r.rep == len(r.kept)+1 {
				r.kept = append(r.kept, out.report)
			}
			rec.ok(d, out.report.Units, reportCycles(out.report))
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// check compares the checked campaigns' reports with shard.Reference. The
// digest is their result_hash values — each the SHA-256 of the campaign's
// per-unit shard.ResultDigest stream in unit order — joined by commas.
func (r *repeated) check() (digest, error) {
	if len(r.kept) < checkedReps {
		return digest{}, fmt.Errorf("%d of the first %d campaigns completed", len(r.kept), checkedReps)
	}
	var dg digest
	hashes := make([]string, len(r.kept))
	for i, rep := range r.kept {
		camp, err := r.spec(i + 1).Compile()
		if err != nil {
			return digest{}, err
		}
		got, err := rep.Encode()
		if err != nil {
			return digest{}, err
		}
		if err := checkReport(camp, got); err != nil {
			return digest{}, fmt.Errorf("campaign %d: %w", i+1, err)
		}
		hashes[i] = rep.ResultHash
		dg.Results += rep.Units
		dg.SimCycles += reportCycles(rep)
	}
	dg.Digest = strings.Join(hashes, ",")
	return dg, nil
}

func (r *repeated) layers(tr *tracer, m metrics) error {
	return r.probe(tr, m, r.spec(1))
}

// firstUnits returns the campaign's only scenario with its schedule cut to
// the first two seeds, for the handler replay.
func firstUnits(cs shard.CampaignSpec) []scenario.Spec {
	sp := cs.Scenarios[0]
	seeds := cs.Seeds.Expand()
	sp.Seeds = scenario.Seeds{List: seeds[:min(2, len(seeds))]}
	return []scenario.Spec{sp}
}

// setupCampaign is campaign-1024: each campaign is compiled, run shard by
// shard through shard.Runner with a checkpoint store, then merged with
// MergeStore. Set-up compiles the first campaign, as a user does before a
// campaign starts; later campaigns compile inside their operation.
func setupCampaign(b *bench) (fixture, error) {
	spec := func(rep int) shard.CampaignSpec { return campaignSpec(b.opts.seed, b.sz, rep) }
	first, err := spec(1).Compile()
	if err != nil {
		return nil, err
	}
	r := &repeated{b: b, spec: spec}
	r.exec = func(cs shard.CampaignSpec, req, root int64, tr *tracer) (outcome, error) {
		camp := first
		if req != 1 {
			var err error
			if tr.timed("shard.compile", root, req, func() { camp, err = cs.Compile() }); err != nil {
				return outcome{}, err
			}
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("campaign-%d", req))
		out := outcome{discard: func() { _ = os.RemoveAll(dir) }}
		var st *shard.Store
		var err error
		if tr.timed("shard.open", root, req, func() { st, err = shard.Open(dir, camp.Manifest()) }); err != nil {
			return out, err
		}
		run := &shard.Runner{Campaign: camp, Store: st, Workers: Workers, CheckpointEvery: campaignChunk}
		for i := 0; i < camp.Plan.Shards; i++ {
			var complete bool
			if tr.timed("shard.run_shard", root, req, func() { _, complete, err = run.RunShard(i) }); err != nil {
				return out, err
			}
			if !complete {
				return out, fmt.Errorf("shard %d incomplete", i)
			}
		}
		if tr.timed("shard.merge_store", root, req, func() { out.report, err = shard.MergeStore(camp, st) }); err != nil {
			return out, err
		}
		// A campaign ends with its report written out, as cmd/corpus does;
		// check encodes the kept reports again.
		tr.timed("shard.report_encode", root, req, func() { _, err = out.report.Encode() })
		return out, err
	}
	r.probe = func(tr *tracer, m metrics, cs shard.CampaignSpec) error {
		m.set("service.hit_ratio", 0, "ratio")
		m.set("service.executions", 0, "count")
		m.set("service.refused", 0, "count")
		if err := probeHandler(b, tr, m, firstUnits(cs), 1); err != nil {
			return err
		}
		return probeEngine(b, tr, m, cs, campaignChunk)
	}
	return r, nil
}

// jobPoll is the status poll interval while a job runs.
const jobPoll = 2 * time.Millisecond

// setupJobs is jobs-tiny: each campaign is a POST /v1/jobs, then GET
// /v1/jobs/{id} until it is done. Set-up starts the service with its job
// store.
func setupJobs(b *bench) (fixture, error) {
	dir, err := os.MkdirTemp(b.dir, "jobs-")
	if err != nil {
		return nil, err
	}
	s, err := startServer(service.Options{JobsDir: dir})
	if err != nil {
		return nil, err
	}
	before, err := s.stats()
	if err != nil {
		s.close()
		return nil, err
	}
	r := &repeated{b: b, spec: func(rep int) shard.CampaignSpec { return jobSpec(b.opts.seed, b.sz, rep) }, stop: s.close}
	r.exec = func(cs shard.CampaignSpec, req, root int64, tr *tracer) (outcome, error) {
		body, err := cs.Encode()
		if err != nil {
			return outcome{}, err
		}
		st, err := runJob(s, body, req, root, tr)
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			report: *st.Report,
			discard: func() {
				if code, resp, err := s.do(http.MethodDelete, "/v1/jobs/"+st.ID, nil); err != nil || code != http.StatusOK {
					fmt.Fprintln(b.log, "delete job:", err, errStatus(code, resp))
				}
			},
		}, nil
	}
	r.probe = func(tr *tracer, m metrics, cs shard.CampaignSpec) error {
		if err := serviceLayers(s, before, m); err != nil {
			return err
		}
		if err := probeHandler(b, tr, m, firstUnits(cs), 1); err != nil {
			return err
		}
		return probeEngine(b, tr, m, cs, shard.DefaultCheckpointEvery)
	}
	return r, nil
}

// runJob submits one job and polls it to completion.
func runJob(s *server, body []byte, req, root int64, tr *tracer) (service.JobStatus, error) {
	var (
		code int
		resp []byte
		err  error
		st   service.JobStatus
	)
	tr.timed("http.post_job", root, req, func() { code, resp, err = s.do(http.MethodPost, "/v1/jobs", body) })
	if err != nil {
		return st, err
	}
	if code != http.StatusCreated {
		return st, errStatus(code, resp)
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return st, err
	}
	for st.State == service.JobRunning {
		time.Sleep(jobPoll)
		tr.timed("http.get_job", root, req, func() { code, resp, err = s.do(http.MethodGet, "/v1/jobs/"+st.ID, nil) })
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, errStatus(code, resp)
		}
		st = service.JobStatus{}
		if err := json.Unmarshal(resp, &st); err != nil {
			return st, err
		}
	}
	if st.State != service.JobDone || st.Report == nil {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}
