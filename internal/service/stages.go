package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"gpa/internal/gpusim"
	"gpa/internal/profiler"
	"gpa/internal/sass"
	"gpa/internal/store"
	"gpa/internal/structure"

	adv "gpa/internal/advisor"
)

// frontendArtifact is the memory-only stage artifact for the module
// front-end: the first module seen under a content hash plus its
// lazily-built flattened program and CFG/loop structure. The
// sync.Onces make "assemble once, analyze once per module" hold even
// under a concurrent arch sweep — every worker shares one build.
// Content-equal modules are interchangeable everywhere downstream (the
// whole pipeline is a pure function of module content), so building
// against the first-seen *sass.Module is sound.
type frontendArtifact struct {
	mod *sass.Module

	progOnce sync.Once
	prog     *gpusim.Program
	progErr  error

	stOnce sync.Once
	st     *structure.Structure
	stErr  error
}

// measureArtifact is the decoded measure-stage artifact; it doubles as
// its own blob payload encoding.
type measureArtifact struct {
	Cycles int64 `json:"cycles"`
	// ElapsedMS is the producing run's wall-clock cost: a store hit
	// replays it, mirroring the cache's "cost the cache avoided"
	// contract so warm responses stay byte-identical to the cold run.
	ElapsedMS float64 `json:"elapsedMs"`

	// view is the prebuilt Cached=true response every later request
	// whose final stage key is this artifact's is answered with.
	view *Response
}

// profileArtifact is the decoded profile-stage artifact.
type profileArtifact struct {
	prof      *profiler.Profile
	digest    string
	elapsedMS float64
	view      *Response // the Cached=true profile response, as measureArtifact.view
}

// profileEnvelope is the profile-stage blob payload. Profile rides as
// its exact canonical JSON bytes: the digest of a store-served profile
// is the SHA-256 of those bytes, byte-identical to Profile.Digest()
// on the profile that produced them.
type profileEnvelope struct {
	ElapsedMS float64         `json:"elapsedMs"`
	Profile   json.RawMessage `json:"profile"`
}

// adviceArtifact is the decoded advice-stage artifact.
type adviceArtifact struct {
	advice    *adv.Advice
	report    string
	elapsedMS float64
	view      *Response // the Cached=true advise response, as measureArtifact.view
}

// adviceEnvelope is the advice-stage blob payload. The rendered report
// text is stored verbatim rather than re-rendered on load, so a
// store-served report is byte-identical to the cold run's by
// construction.
type adviceEnvelope struct {
	ElapsedMS float64     `json:"elapsedMs"`
	Report    string      `json:"report"`
	Advice    *adv.Advice `json:"advice"`
}

// decodeEnvelope strictly unmarshals a blob payload: unknown fields
// and trailing garbage are corruption, not forward compatibility —
// cross-version compatibility is the schema string's job.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeEnvelope(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("service: trailing data after envelope")
	}
	return nil
}

// decodeMeasure validates a measure-stage payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeMeasure(payload []byte) (*measureArtifact, error) {
	var ma measureArtifact
	if err := decodeEnvelope(payload, &ma); err != nil {
		return nil, err
	}
	if ma.Cycles < 0 {
		return nil, fmt.Errorf("service: negative cycle count in measure artifact")
	}
	return &ma, nil
}

// decodeProfile validates a profile-stage payload and rebuilds the
// profile plus its content digest from the embedded canonical bytes.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeProfile(payload []byte) (*profileArtifact, error) {
	var env profileEnvelope
	if err := decodeEnvelope(payload, &env); err != nil {
		return nil, err
	}
	if len(env.Profile) == 0 {
		return nil, fmt.Errorf("service: empty profile in artifact")
	}
	var prof profiler.Profile
	if err := json.Unmarshal(env.Profile, &prof); err != nil {
		return nil, err
	}
	if prof.Kernel == "" {
		return nil, fmt.Errorf("service: profile artifact names no kernel")
	}
	sum := sha256.Sum256(env.Profile)
	return &profileArtifact{
		prof:      &prof,
		digest:    hex.EncodeToString(sum[:]),
		elapsedMS: env.ElapsedMS,
	}, nil
}

// decodeAdvice validates an advice-stage payload.
//
//gpa:lint-allow apierrlint decode errors degrade to counted store-corrupt misses inside stageLookup; they never cross the service boundary
func decodeAdvice(payload []byte) (*adviceArtifact, error) {
	var env adviceEnvelope
	if err := decodeEnvelope(payload, &env); err != nil {
		return nil, err
	}
	if env.Advice == nil || env.Advice.Kernel == "" {
		return nil, fmt.Errorf("service: advice artifact names no kernel")
	}
	if env.Report == "" {
		return nil, fmt.Errorf("service: advice artifact has no report")
	}
	return &adviceArtifact{advice: env.Advice, report: env.Report, elapsedMS: env.ElapsedMS}, nil
}

// stageLookup resolves one stage artifact: memory first, then disk
// (decoding and re-warming memory on a disk hit). A disk blob whose
// payload fails artifact-level validation is reported corrupt and
// removed — checksum-valid framing proves the bytes survived, not that
// they decode to a well-formed artifact. The zero key (a request
// without a stable identity) is never looked up.
func (e *Engine) stageLookup(stage string, key store.Key, decode func([]byte) (any, error)) any {
	if key == (store.Key{}) {
		return nil
	}
	if v, ok := e.stages.Get(stage, key); ok {
		return v
	}
	if e.disk == nil {
		return nil
	}
	payload, ok := e.disk.Get(stage, key)
	if !ok {
		return nil
	}
	v, err := decode(payload)
	if err != nil {
		e.disk.NoteCorrupt(stage, key)
		return nil
	}
	return e.stages.Add(stage, key, v)
}

func (e *Engine) measureArtifactGet(key store.Key) *measureArtifact {
	v := e.stageLookup(store.StageMeasure, key, func(p []byte) (any, error) {
		ma, err := decodeMeasure(p)
		if err != nil {
			return nil, err
		}
		ma.view = &Response{
			Key: keyHex(key), Cached: true, Kind: KindMeasure,
			Cycles: ma.Cycles, ElapsedMS: ma.ElapsedMS, memo: &respMemo{},
		}
		return ma, nil
	})
	if v == nil {
		return nil
	}
	return v.(*measureArtifact)
}

func (e *Engine) profileArtifactGet(key store.Key) *profileArtifact {
	v := e.stageLookup(store.StageProfile, key, func(p []byte) (any, error) {
		pa, err := decodeProfile(p)
		if err != nil {
			return nil, err
		}
		return pa.withView(key), nil
	})
	if v == nil {
		return nil
	}
	return v.(*profileArtifact)
}

// adviceArtifactGet resolves the advice artifact blaming pa, the
// profile artifact its key derives from.
func (e *Engine) adviceArtifactGet(key store.Key, pa *profileArtifact) *adviceArtifact {
	v := e.stageLookup(store.StageAdvice, key, func(p []byte) (any, error) {
		aa, err := decodeAdvice(p)
		if err != nil {
			return nil, err
		}
		// Context is not serializable (it is a pointer graph into the
		// module); store-served advise responses carry a nil Context.
		// Every in-repo consumer reads Advice/Report only.
		aa.view = &Response{
			Key: keyHex(key), Cached: true, Kind: KindAdvise,
			Cycles: pa.prof.Cycles, ElapsedMS: aa.elapsedMS,
			Profile: pa.prof, ProfileDigest: pa.digest,
			Advice: aa.advice, Report: aa.report, memo: &respMemo{},
		}
		return aa, nil
	})
	if v == nil {
		return nil
	}
	return v.(*adviceArtifact)
}

// withView attaches the artifact's Cached=true profile response. Every
// profile artifact carries one, whichever kind of request produced it,
// because the profile key is also the final key of a profile request.
func (pa *profileArtifact) withView(key store.Key) *profileArtifact {
	pa.view = &Response{
		Key: keyHex(key), Cached: true, Kind: KindProfile,
		Cycles: pa.prof.Cycles, ElapsedMS: pa.elapsedMS,
		Profile: pa.prof, ProfileDigest: pa.digest, memo: &respMemo{},
	}
	return pa
}

// finalView returns the prebuilt response of a final-stage artifact
// held in memory (nil for the frontend stage, which is never final).
func finalView(v any) *Response {
	switch a := v.(type) {
	case *measureArtifact:
		return a.view
	case *profileArtifact:
		return a.view
	case *adviceArtifact:
		return a.view
	}
	return nil
}

// keyHex renders a stage key for Response.Key ("" for the zero key of
// a request without a stable identity).
func keyHex(key store.Key) string {
	if key == (store.Key{}) {
		return ""
	}
	return hex.EncodeToString(key[:])
}

// stagePut publishes a freshly-computed stage artifact to the memory
// backend and, when configured, the disk backend. Encoding failures
// only cost persistence, never the request. Artifacts of a request
// without a stable identity (zero key) are never published.
func (e *Engine) stagePut(stage string, key store.Key, artifact any, encode func() ([]byte, error)) {
	if key == (store.Key{}) {
		return
	}
	e.stages.Add(stage, key, artifact)
	if e.disk == nil {
		return
	}
	payload, err := encode()
	if err != nil {
		return
	}
	e.disk.Put(stage, key, payload)
}

// frontendFor returns the shared front-end artifact for the request's
// module, creating it on first sight. Without memory caching, or for a
// request without a stable identity (zero key), every run builds its
// own.
func (e *Engine) frontendFor(n *Request, key store.Key) *frontendArtifact {
	if key == (store.Key{}) {
		return &frontendArtifact{mod: n.Module}
	}
	if v, ok := e.stages.Get(store.StageFrontend, key); ok {
		return v.(*frontendArtifact)
	}
	return e.stages.Add(store.StageFrontend, key, &frontendArtifact{mod: n.Module}).(*frontendArtifact)
}

// programOf returns the artifact's flattened program, building it at
// most once (seeded from the request when the caller already has one —
// gpa.Kernel memoizes programs too).
func (f *frontendArtifact) programOf(seed *gpusim.Program) (*gpusim.Program, error) {
	f.progOnce.Do(func() {
		if seed != nil {
			f.prog = seed
			return
		}
		f.prog, f.progErr = gpusim.Load(f.mod)
	})
	return f.prog, f.progErr
}

// structureOf returns the artifact's program structure, running
// structure.Analyze at most once per module and counting the build.
func (e *Engine) structureOf(f *frontendArtifact) (*structure.Structure, error) {
	f.stOnce.Do(func() {
		e.count(&e.stats.structureBuilds)
		f.st, f.stErr = structure.Analyze(f.mod)
	})
	return f.st, f.stErr
}

// serveFromStore answers a flight from stored stage artifacts (memory,
// then disk) without running any pipeline stage, returning the final
// artifact's prebuilt Cached=true view. nil means a stage the request
// needs is missing and the flight must run.
func (e *Engine) serveFromStore(kind Kind, sk *stageKeys) *Response {
	var view *Response
	switch kind {
	case KindMeasure:
		if ma := e.measureArtifactGet(sk.measure); ma != nil {
			view = ma.view
		}
	case KindProfile:
		if pa := e.profileArtifactGet(sk.profile); pa != nil {
			view = pa.view
		}
	case KindAdvise:
		if pa := e.profileArtifactGet(sk.profile); pa != nil {
			if aa := e.adviceArtifactGet(sk.advice, pa); aa != nil {
				view = aa.view
			}
		}
	}
	if view != nil {
		e.count(&e.stats.stageServed)
	}
	return view
}
