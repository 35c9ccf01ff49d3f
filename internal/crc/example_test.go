package crc_test

import (
	"fmt"

	"realsum/internal/crc"
	"realsum/internal/gf2poly"
)

// One-shot CRC computation over the catalogued algorithms.
func ExampleTable_Checksum() {
	data := []byte("123456789")
	for _, p := range []crc.Params{crc.CRC32, crc.CRC10, crc.CRC8HEC} {
		fmt.Printf("%-9s %#x\n", p.Name, crc.New(p).Checksum(data))
	}
	// Output:
	// CRC-32    0xcbf43926
	// CRC-10    0x199
	// CRC-8/HEC 0xa1
}

// Computing, rather than quoting, an algorithm's error-detection
// guarantees from its generator polynomial.
func ExampleParams_Generator() {
	fmt.Println("CRC-32: ", gf2poly.DetectsOddErrors(crc.CRC32.Generator()))
	fmt.Println("CRC-32C:", gf2poly.DetectsOddErrors(crc.CRC32C.Generator()))
	fmt.Println("CRC-16: ", gf2poly.DetectsOddErrors(crc.CRC16.Generator()))
	// Output:
	// CRC-32:  false
	// CRC-32C: true
	// CRC-16:  true
}
