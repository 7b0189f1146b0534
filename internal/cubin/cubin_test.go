package cubin

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gpa/internal/sass"
)

const moduleSrc = `
.module sm_70
.func __cuda_sqrt device
.line mathlib.cu 100
	MUFU.RCP R8, R8 {S:1, W:5}
	RET {Q:5}
.func saxpy global
.line saxpy.cu 10
	S2R R0, SR_CTAID.X {S:2, W:0}
	S2R R1, SR_TID.X {S:2, W:1}
.line saxpy.cu 11
	IMAD R0, R0, c[0x0][0x0], R1 {S:4, Q:0|1}
.inline saxpy.cu 12 scale
.line inl.cu 40
	FMUL R2, R2, 2f {S:4}
.inlineend
.line saxpy.cu 13
	CAL __cuda_sqrt {S:2}
	@P0 LDG.E.32 R4, [R2+0x20] {S:1, W:2}
	STG.E.32 [R6], R4 {S:1, R:3, Q:2}
	EXIT {Q:3}
`

func TestPackUnpackRoundTrip(t *testing.T) {
	m, err := sass.Assemble(moduleSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	blob, err := Pack(m)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(blob)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Arch != 70 {
		t.Errorf("arch = %d, want 70", got.Arch)
	}
	if len(got.Functions) != 2 {
		t.Fatalf("got %d functions, want 2", len(got.Functions))
	}
	sq := got.Function("__cuda_sqrt")
	if sq == nil || sq.Visibility != sass.VisDevice {
		t.Fatalf("__cuda_sqrt missing or wrong visibility: %+v", sq)
	}
	sx := got.Function("saxpy")
	if sx == nil || sx.Visibility != sass.VisGlobal {
		t.Fatalf("saxpy missing or wrong visibility: %+v", sx)
	}
	if len(sx.Instrs) != 8 {
		t.Fatalf("saxpy has %d instructions, want 8", len(sx.Instrs))
	}
	// Instruction payloads survive.
	want := m.Function("saxpy")
	for i := range sx.Instrs {
		if sx.Instrs[i].Opcode != want.Instrs[i].Opcode {
			t.Errorf("instr %d opcode = %v, want %v", i, sx.Instrs[i].Opcode, want.Instrs[i].Opcode)
		}
		if sx.Instrs[i].Ctrl != want.Instrs[i].Ctrl {
			t.Errorf("instr %d ctrl = %+v, want %+v", i, sx.Instrs[i].Ctrl, want.Instrs[i].Ctrl)
		}
	}
	// Line mapping survives.
	if sx.Lines[0].File != "saxpy.cu" || sx.Lines[0].Line != 10 {
		t.Errorf("line[0] = %+v", sx.Lines[0])
	}
	// Inline stack survives.
	li := sx.Lines[3]
	if li.File != "inl.cu" || li.Line != 40 || len(li.Inline) != 1 {
		t.Fatalf("inline line = %+v", li)
	}
	if fr := li.Inline[0]; fr.Function != "scale" || fr.File != "saxpy.cu" || fr.Line != 12 {
		t.Errorf("inline frame = %+v", fr)
	}
	// CAL target symbol survives via the function table.
	tgt, ok := sx.Instrs[4].BranchTarget()
	if !ok || tgt.Sym != "__cuda_sqrt" {
		t.Errorf("CAL target = %+v", tgt)
	}
}

// TestPackUnpackUnknownLine pins the -1 "no source line" marker
// through the container: lines are packed as 32-bit two's complement,
// so a -1 on an instruction line or an inline frame must unpack as -1,
// not 4294967295. The SASS and CUBIN forms of one module share a
// content-addressed key, so they must decode to the same lines.
func TestPackUnpackUnknownLine(t *testing.T) {
	m, err := sass.Assemble(moduleSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	sx := m.Function("saxpy")
	sx.Lines[0].Line = -1
	sx.Lines[3].Inline[0].Line = -1
	blob, err := Pack(m)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(blob)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	gx := got.Function("saxpy")
	if l := gx.Lines[0].Line; l != -1 {
		t.Errorf("instruction line = %d, want -1", l)
	}
	if l := gx.Lines[3].Inline[0].Line; l != -1 {
		t.Errorf("inline frame line = %d, want -1", l)
	}
	if l := gx.Lines[3].Line; l != 40 {
		t.Errorf("neighbouring line = %d, want 40", l)
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	m, err := sass.Assemble(moduleSrc)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xff
		if _, err := Unpack(bad); err == nil {
			t.Error("Unpack accepted a bad magic")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 8, len(blob) / 2, len(blob) - 1} {
			if _, err := Unpack(blob[:cut]); err == nil {
				t.Errorf("Unpack accepted truncation at %d", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), blob...), 0xde, 0xad)
		if _, err := Unpack(bad); err == nil {
			t.Error("Unpack accepted trailing bytes")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Unpack(nil); err == nil {
			t.Error("Unpack accepted empty input")
		}
	})
	t.Run("counts the input cannot hold", func(t *testing.T) {
		// A 20-byte header claiming 2^20 functions must be rejected
		// before the count sizes an allocation (~70 MB of records).
		var hdr bytes.Buffer
		for _, v := range []uint32{Magic, Version, 70, maxSaneCount, 0} {
			_ = binary.Write(&hdr, binary.LittleEndian, v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unpack(hdr.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("Unpack accepted a header claiming 2^20 functions")
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("Unpack allocated %d bytes for a 20-byte input", n)
		}
	})
}

func TestPackDeterministic(t *testing.T) {
	m, err := sass.Assemble(moduleSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Pack is not deterministic")
	}
}

func TestPackRejectsInvalidModule(t *testing.T) {
	m := &sass.Module{Arch: 70}
	if _, err := Pack(m); err == nil {
		t.Error("Pack accepted an empty module")
	}
}
