// Secretstore: the value-carrying datapath end to end. A small key-value
// store keeps its records in ObfusMem-protected memory; we show that (1)
// data round-trips correctly through at-rest + transit encryption, (2) the
// memory module holds only ciphertext, (3) a bus observer learns nothing
// about which record is hot, and (4) Observation 4 plays out exactly as
// the paper describes: in-flight data corruption passes the bus MAC but is
// caught by the Merkle integrity tree on the next read.
package main

import (
	"fmt"
	"log"

	"obfusmem"
)

func mkBlock(s string) obfusmem.Block {
	var b obfusmem.Block
	copy(b[:], s)
	return b
}

func main() {
	m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
		Scheme: "obfusmem-auth", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	obs := m.AttachObserver(1 << 20)

	// A tiny record store: key i lives at block i.
	records := []string{
		"alice: salary=120000",
		"bob: salary=95000",
		"carol: diagnosis=confidential",
		"dave: pin=4242",
	}
	var at obfusmem.Time
	for i, r := range records {
		at = m.WriteBlock(at, uint64(i)*64, mkBlock(r))
	}

	// Hammer one hot record (the access pattern a real attacker wants).
	for i := 0; i < 200; i++ {
		_, done, _ := m.ReadBlock(at, 2*64) // carol, 200 times
		at = done
	}

	// 1. Round trip.
	got, done, verified := m.ReadBlock(at, 2*64)
	at = done
	fmt.Printf("read back: %q (verified=%v)\n", string(got[:30]), verified)

	// 2. What sits in the memory chips.
	fmt.Printf("\nwhat a memory readout attack sees (block 2): not %q\n", records[2][:20])
	fmt.Println("   (ciphertext at rest; see TestValueDataInMemoryIsCiphertext)")

	// 3. What the bus observer learned.
	fmt.Printf("\nbus observer after %d packets:\n", obs.Packets())
	fmt.Printf("  ciphertext repeats:  %.4f  (cannot see that one record is hot)\n", obs.TemporalLeakage())
	fmt.Printf("  footprint estimate:  %d vs true 4 records\n", obs.FootprintEstimate())
	fmt.Printf("  dictionary attack:   %.4f recovery\n", obs.DictionaryAttack())

	// 4. Observation 4: corrupt data in flight during a write.
	fmt.Println("\nactive attacker corrupts the data payload of the next write...")
	tmp := m.AttachTamperer(obfusmem.TamperData, 1)
	at = m.WriteBlock(at, 3*64, mkBlock("dave: pin=9999 (update)"))
	ev := m.SecurityEvents()
	fmt.Printf("  bus MAC alarms: %d (encrypt-and-MAC does not cover data — by design)\n", ev.TamperDetected)
	_ = tmp

	m2, _, ok := m.ReadBlock(at, 3*64)
	fmt.Printf("  next read of dave's record: verified=%v (Merkle tree caught it)\n", ok)
	if ok {
		log.Fatal("corruption went undetected!")
	}
	_ = m2
	fmt.Println("\nObservation 4: \"tampering of data that is written to memory will not be")
	fmt.Println("detected until the data is eventually read into the processor chip.\"")
}
