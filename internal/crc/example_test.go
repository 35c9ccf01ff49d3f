package crc_test

import (
	"fmt"

	"realsum/internal/crc"
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
// guarantees.
func ExampleParams_DetectsOddErrors() {
	fmt.Println("CRC-32: ", crc.CRC32.DetectsOddErrors())
	fmt.Println("CRC-32C:", crc.CRC32C.DetectsOddErrors())
	fmt.Println("CRC-16: ", crc.CRC16.DetectsOddErrors())
	// Output:
	// CRC-32:  false
	// CRC-32C: true
	// CRC-16:  true
}
