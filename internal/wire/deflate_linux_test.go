package wire

import (
	"bytes"
	"syscall"
	"testing"
)

// TestDeflateReadsOnlyTheBody: deflate's bounds-free loads (load32, load64)
// read nothing outside the body. Every body TestDeflateRoundTrips deflates
// is copied between two pages the process may not read, once ending at the
// second and once starting after the first, so a load past either end of
// the body faults; both copies deflate to the bytes the body does.
func TestDeflateReadsOnlyTheBody(t *testing.T) {
	page := syscall.Getpagesize()
	z := new(deflater)
	for _, b := range deflateBodies(t) {
		size := (len(b.raw) + page - 1) / page * page
		mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Mprotect(mem[page+size:], syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
		want := deflate(new(deflater), nil, b.raw, b.breaks)
		for _, at := range []int{page + size - len(b.raw), page} {
			body := mem[at : at+len(b.raw) : at+len(b.raw)]
			copy(body, b.raw)
			if got := deflate(z, nil, body, b.breaks); !bytes.Equal(got, want) {
				t.Fatalf("%s: deflating the body between unreadable pages gives other bytes", b.name)
			}
		}
		if err := syscall.Munmap(mem); err != nil {
			t.Fatal(err)
		}
	}
}
