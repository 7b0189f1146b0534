package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"gpa/internal/arch"
	"gpa/internal/cubin"
	"gpa/internal/store"
)

// stageSchema versions the stage keys and the blob payload encodings
// together: bump it whenever the set or order of keyed fields or an
// envelope layout changes, so stale keys can never alias a new request
// and blobs written under another schema are misses by construction
// (the framing rejects them), never misreads. The "+gpa-service-key/2"
// suffix names the field-encoding layout the keys inherited (module
// and GPU model entering by their SHA-256 digests); it is part of the
// literal so store directories written under it stay readable.
const stageSchema = "gpa-stage/1+gpa-service-key/2"

// StoreSchema is the payload-schema string an on-disk artifact store
// must be opened with to serve this build's engine.
func StoreSchema() string { return stageSchema }

// OpenDisk opens (creating if needed) an on-disk artifact store at dir
// under this build's stage schema.
func OpenDisk(dir string) (*store.Disk, error) {
	return store.Open(dir, stageSchema)
}

// stageKeys holds the per-stage content-addressed keys for one
// request. The Figure 2 pipeline factors into three dependency tiers,
// each keyed by exactly the inputs that can change its output:
//
//	frontend: module                         → Program, Structure
//	measure/profile: module+launch+arch+sim  → cycles / sampled profile
//	advice: profile key + blamer options     → ranked advice, report
//
// Kind is deliberately excluded from every key: a profile request and
// an advise request over the same inputs share one profile artifact,
// which is what lets a stored /v1/profile feed /v1/advise without
// re-simulation. Kind only picks final, the key of the request's last
// stage, which is the engine's one cache and singleflight key.
// Parallelism is excluded because results are bit-identical at every
// level.
type stageKeys struct {
	frontend store.Key
	measure  store.Key
	profile  store.Key
	advice   store.Key

	final      store.Key
	finalStage string
}

// Digest returns the request's content-addressed key in hex: its
// final stage key (measure, profile or advice, by Kind), a SHA-256
// over the module's canonical bytes (cubin container encoding), the
// launch configuration, the architecture model and every
// result-affecting option of that stage and the stages it depends on.
// Parallelism is deliberately excluded — the simulator is bit-identical
// at every parallelism level, so requests differing only in worker
// counts share one key.
//
// A request carrying a Workload without a WorkloadKey has no stable
// identity (workloads are opaque callbacks); Digest returns "" and the
// engine bypasses the caches and singleflight for it.
func (r *Request) Digest() (string, error) {
	sk, ok, err := r.stageKeys()
	if err != nil || !ok {
		return "", err
	}
	return hex.EncodeToString(sk.final[:]), nil
}

// stageKeys derives the per-stage keys of the normalized request.
// ok=false marks a request with no stable identity (workload without a
// key): it bypasses the caches, the artifact store and singleflight.
// The labeled, length-prefixed field encodings land in stack buffers,
// and the two variable-size inputs — the module and the GPU model
// table — enter by their own cached digests (Request.ModuleHash and a
// per-model memo), so a warm engine derives keys without allocating.
func (r *Request) stageKeys() (sk stageKeys, ok bool, err error) {
	if r.Workload != nil && r.WorkloadKey == "" {
		return sk, false, nil
	}
	mh := r.ModuleHash
	if mh == ([32]byte{}) {
		blob, err := cubin.Pack(r.Module)
		if err != nil {
			return sk, false, fmt.Errorf("service: stage keys: %w", err)
		}
		mh = sha256.Sum256(blob)
	}
	n := r.normalized()
	// The GPU model is keyed by its full constant table, not just its
	// registry key: a mutated or re-registered model with the same key
	// must never alias another model's artifacts. arch.GPU is plain
	// scalar data, so its JSON encoding is canonical.
	gh, err := gpuModelHash(n.GPU)
	if err != nil {
		return sk, false, err
	}

	// Frontend: the arch-independent half — module content only.
	var fbuf [192]byte
	fb := appendStr(fbuf[:0], "schema", stageSchema)
	fb = appendStr(fb, "stage", store.StageFrontend)
	fb = appendBytes(fb, "module", mh[:])
	sk.frontend = sha256.Sum256(fb)

	// Shared simulation identity: everything that feeds gpusim.Run.
	var sbuf [1024]byte
	sim := appendStr(sbuf[:0], "schema", stageSchema)
	sim = appendBytes(sim, "module", mh[:])
	sim = appendStr(sim, "entry", n.Launch.Entry)
	sim = appendI64(sim, "gridX", int64(n.Launch.Grid.X))
	sim = appendI64(sim, "gridY", int64(n.Launch.Grid.Y))
	sim = appendI64(sim, "gridZ", int64(n.Launch.Grid.Z))
	sim = appendI64(sim, "blockX", int64(n.Launch.Block.X))
	sim = appendI64(sim, "blockY", int64(n.Launch.Block.Y))
	sim = appendI64(sim, "blockZ", int64(n.Launch.Block.Z))
	sim = appendI64(sim, "regs", int64(n.Launch.RegsPerThread))
	sim = appendI64(sim, "shared", int64(n.Launch.SharedMemPerBlock))
	sim = appendStr(sim, "gpu", arch.KeyOf(n.GPU))
	sim = appendBytes(sim, "gpuModel", gh[:])
	sim = appendI64(sim, "simSMs", int64(n.SimSMs))
	sim = appendI64(sim, "seed", int64(n.Seed))
	sim = appendStr(sim, "workload", n.WorkloadKey)

	var mbuf [1024 + 64]byte
	mb := append(mbuf[:0], sim...)
	mb = appendStr(mb, "stage", store.StageMeasure)
	sk.measure = sha256.Sum256(mb)

	// Profile adds the sampling period. For KindMeasure requests the
	// normalized period is 0 and the profile/advice keys go unused.
	var pbuf [1024 + 64]byte
	pb := append(pbuf[:0], sim...)
	pb = appendI64(pb, "period", int64(n.SamplePeriod))
	pb = appendStr(pb, "stage", store.StageProfile)
	sk.profile = sha256.Sum256(pb)

	// Advice depends on the profile it blames plus the blamer knobs.
	var abuf [512]byte
	ab := appendStr(abuf[:0], "schema", stageSchema)
	ab = appendStr(ab, "stage", store.StageAdvice)
	ab = appendBytes(ab, "profileKey", sk.profile[:])
	ab = appendBool(ab, "noOpcodePrune", n.Blamer.DisableOpcodePrune)
	ab = appendBool(ab, "noDominatorPrune", n.Blamer.DisableDominatorPrune)
	ab = appendBool(ab, "noLatencyPrune", n.Blamer.DisableLatencyPrune)
	ab = appendBool(ab, "noIssueWeight", n.Blamer.DisableIssueWeight)
	ab = appendBool(ab, "noPathWeight", n.Blamer.DisablePathWeight)
	ab = appendI64(ab, "maxSliceSteps", int64(n.Blamer.MaxSliceSteps))
	sk.advice = sha256.Sum256(ab)

	switch n.Kind {
	case KindMeasure:
		sk.final, sk.finalStage = sk.measure, store.StageMeasure
	case KindProfile:
		sk.final, sk.finalStage = sk.profile, store.StageProfile
	default:
		sk.final, sk.finalStage = sk.advice, store.StageAdvice
	}
	return sk, true, nil
}

// gpuHashes memoizes the SHA-256 of each GPU model's JSON encoding,
// keyed by pointer. Models handed out by the arch registry or reused
// across requests (gpa.Engine jobs, gpad's per-name model cache) hit
// the memo; the size cap guards against callers that mint a fresh GPU
// per request degrading it into a leak.
var gpuHashes struct {
	sync.RWMutex
	m map[*arch.GPU][32]byte
}

const gpuHashCap = 4096

func gpuModelHash(g *arch.GPU) ([32]byte, error) {
	gpuHashes.RLock()
	h, ok := gpuHashes.m[g]
	gpuHashes.RUnlock()
	if ok {
		return h, nil
	}
	data, err := json.Marshal(g)
	if err != nil {
		return [32]byte{}, fmt.Errorf("service: digest: %w", err)
	}
	h = sha256.Sum256(data)
	gpuHashes.Lock()
	if gpuHashes.m == nil || len(gpuHashes.m) >= gpuHashCap {
		gpuHashes.m = make(map[*arch.GPU][32]byte, 16)
	}
	gpuHashes.m[g] = h
	gpuHashes.Unlock()
	return h, nil
}

// appendBytes writes a labeled, length-prefixed field so adjacent
// values can never collide by concatenation.
func appendBytes(b []byte, label string, v []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(label)))
	b = append(b, label...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	return append(b, v...)
}

func appendStr(b []byte, label, v string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(label)))
	b = append(b, label...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	return append(b, v...)
}

func appendI64(b []byte, label string, v int64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return appendBytes(b, label, buf[:])
}

func appendBool(b []byte, label string, v bool) []byte {
	if v {
		return appendI64(b, label, 1)
	}
	return appendI64(b, label, 0)
}
