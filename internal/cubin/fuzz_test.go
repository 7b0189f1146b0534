package cubin_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"gpa"
	"gpa/internal/cubin"
	"gpa/internal/kernels"
	"gpa/internal/sass"
)

// overrunWord is a MOV word whose header claims four 32-bit immediates:
// 44 + 4*35 = 184 bits, past the end of the 128-bit word.
const overrunWord = "2a07000000a800000000050000000800"

// overrunBlob packs a one-instruction kernel, then overwrites that
// instruction's word with overrunWord.
func overrunBlob(tb testing.TB) []byte {
	tb.Helper()
	m := sass.MustAssemble(".func k global\n\tMOV R0, 0x1 {S:1}\n\tEXIT\n")
	blob, err := cubin.Pack(m)
	if err != nil {
		tb.Fatal(err)
	}
	word, err := sass.EncodeInstruction(&m.Functions[0].Instrs[0], nil)
	if err != nil {
		tb.Fatal(err)
	}
	bad, _ := hex.DecodeString(overrunWord)
	i := bytes.Index(blob, word[:])
	if i < 0 {
		tb.Fatal("encoded MOV word not found in the packed blob")
	}
	copy(blob[i:], bad)
	return blob
}

// FuzzCubinUnpack: CUBIN bytes come from clients (gpad's binary field),
// so Unpack must return a module or an error for any input, never
// panic. An error is ErrBadKernel at the gpa boundary, and a module
// that unpacks packs again.
func FuzzCubinUnpack(f *testing.F) {
	k, err := gpa.LoadKernelAsm(kernels.All()[0].Base.Asm, gpa.Launch{})
	if err != nil {
		f.Fatal(err)
	}
	table3, err := k.SaveBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(table3)
	f.Add(overrunBlob(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := cubin.Unpack(blob)
		if (m == nil) == (err == nil) {
			t.Fatalf("Unpack returned module %v with error %v", m != nil, err)
		}
		if err != nil {
			if _, err := gpa.LoadKernelBinary(blob, gpa.Launch{Entry: "k"}); !errors.Is(err, gpa.ErrBadKernel) {
				t.Fatalf("LoadKernelBinary error %v, want ErrBadKernel", err)
			}
			return
		}
		if _, err := cubin.Pack(m); err != nil {
			t.Fatalf("unpacked module does not pack again: %v", err)
		}
	})
}
