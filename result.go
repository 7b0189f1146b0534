package gpa

import (
	"encoding/json"

	"gpa/internal/profiler"

	adv "gpa/internal/advisor"
)

// ResultSchemaVersion identifies the structured result schema of the
// v2 API. Bump the trailing version whenever a field is added, removed,
// or changes meaning, so machine clients (dashboards, optimize-measure
// loops, multi-deployment drift checks) can dispatch on it instead of
// sniffing fields. cmd/gpad stamps it on every response body, success
// and error alike.
const ResultSchemaVersion = "gpa-result/2"

// Result is the versioned, machine-readable outcome of one pipeline
// run: the structured form of a Report that the library returns and
// cmd/gpad serves as JSON. The legacy Figure 8 text rendering rides
// along in ReportText, byte-identical to Report.String(), so v1 text
// consumers keep working while structured clients read Advice
// directly.
type Result struct {
	// SchemaVersion is always ResultSchemaVersion.
	SchemaVersion string `json:"schemaVersion"`
	// Kernel is the entry function the run simulated or analyzed.
	Kernel string `json:"kernel"`
	// Arch is the canonical registry key of the GPU model ("v100").
	Arch string `json:"arch"`
	// Kind is the pipeline stage ("measure", "profile", "advise").
	Kind string `json:"kind"`
	// TraceID is the per-request trace identifier echoed back to the
	// client (cmd/gpad stamps it from X-Request-Id or mints one).
	// Transport-level observability only: it is excluded from every
	// stage key and the determinism contract — two
	// requests with different trace IDs return otherwise byte-identical
	// results. Empty for library-direct results.
	TraceID string `json:"traceId,omitempty"`
	// Key is the content-addressed cache key ("" when uncacheable).
	Key string `json:"key,omitempty"`
	// Cached is true when the result was served without a new
	// simulation (cache hit or coalesced with an in-flight duplicate).
	Cached bool `json:"cached"`
	// Cycles is the simulated kernel duration.
	Cycles int64 `json:"cycles"`
	// ElapsedMS is the wall-clock cost in milliseconds of the pipeline
	// run that produced the result; cached results report the original
	// run's cost (the time the cache avoided).
	ElapsedMS float64 `json:"elapsedMs"`
	// ProfileDigest is the profile's stable content digest: equal
	// requests digest equally across builds and deployments, which is
	// what drift checks compare.
	ProfileDigest string `json:"profileDigest,omitempty"`
	// Advice is the structured ranked advice ("advise" kind): the same
	// entries the Figure 8 text renders, machine-readable.
	Advice []adv.AdviceEntry `json:"advice,omitempty"`
	// ReportText is the legacy Figure 8-style rendering ("advise"
	// kind), byte-identical to Report.String() for the same run.
	ReportText string `json:"report,omitempty"`
	// Profile carries the raw per-PC samples when requested ("profile"
	// kind; omitted from "advise" results to keep them compact).
	Profile *profiler.Profile `json:"profile,omitempty"`
}

// MarshalIndent renders the result as indented JSON (the gpad wire
// encoding).
func (r *Result) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Result converts a direct-API report into the versioned structured
// result. The kernel supplies launch identity, gpu the architecture
// key (nil = the model the report's profile records, else the V100
// default); elapsedMS may be zero when the caller did not time the
// run.
func (r *Report) Result(k *Kernel, gpu string, elapsedMS float64) *Result {
	if gpu == "" {
		gpu = GPUName(V100())
		if r.Profile != nil && r.Profile.GPU != "" {
			gpu = r.Profile.GPU
		}
	}
	res := &Result{
		SchemaVersion: ResultSchemaVersion,
		Kernel:        k.Launch.Entry,
		Arch:          gpu,
		Kind:          JobAdvise.String(),
		ElapsedMS:     elapsedMS,
		ReportText:    r.String(),
	}
	if r.Advice != nil {
		res.Advice = r.Advice.Entries
	}
	if r.Profile != nil {
		res.Cycles = r.Profile.Cycles
		if d, err := r.Profile.Digest(); err == nil {
			res.ProfileDigest = d
		}
	}
	return res
}

// Result converts an engine job outcome into the versioned structured
// result (nil when the job failed; read JobResult.Err instead).
func (j Job) Result(res JobResult) *Result {
	if res.Err != nil {
		return nil
	}
	gpu := V100()
	if j.Options != nil && j.Options.GPU != nil {
		gpu = j.Options.GPU
	}
	out := &Result{
		SchemaVersion: ResultSchemaVersion,
		Kernel:        j.Kernel.Launch.Entry,
		Arch:          GPUName(gpu),
		Kind:          j.Kind.String(),
		Key:           res.Key,
		Cached:        res.Cached,
		Cycles:        res.Cycles,
		ElapsedMS:     res.ElapsedMS,
		ProfileDigest: res.ProfileDigest,
	}
	if res.Report != nil {
		out.Advice = res.Report.Advice.Entries
		out.ReportText = res.Report.String()
	}
	if j.Kind == JobProfile {
		out.Profile = res.Profile
	}
	return out
}
