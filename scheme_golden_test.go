package obfusmem

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSchemeGolden pins the machines NewMachine builds: for every scheme
// and every ObfusMem knob combination the benchmarks use (the knobs are
// ignored on the other schemes), a 2000-request milc run must reproduce
// the recorded digest of its Result and Traffic.
// The digests were recorded before MachineConfig named schemes by their
// registered names, so they also pin that the renaming built the same
// machines.
func TestSchemeGolden(t *testing.T) {
	cases := []struct {
		name   string
		cfg    MachineConfig
		digest string
	}{
		{"unprotected", MachineConfig{Scheme: "unprotected"}, "f79e0573f679f80b"},
		{"zero-scheme", MachineConfig{}, "f79e0573f679f80b"},
		{"unprotected-ignores-knobs", MachineConfig{Scheme: "unprotected", Dummy: RandomAddress, MAC: EncryptThenMAC, Symmetric: true}, "f79e0573f679f80b"},
		{"encrypt-only", MachineConfig{Scheme: "encrypt-only"}, "a50ae7195b12d2cc"},
		{"obfusmem", MachineConfig{Scheme: "obfusmem"}, "fab6703497256067"},
		{"obfusmem-auth", MachineConfig{Scheme: "obfusmem-auth"}, "3c18f8c4f036a119"},
		{"oram", MachineConfig{Scheme: "oram"}, "a750dd2fa6ff110c"},
		{"palermo", MachineConfig{Scheme: "palermo"}, "6a7615230e751db5"},
		{"dummy-original", MachineConfig{Scheme: "obfusmem", Dummy: OriginalAddress}, "680bfd88647e99e8"},
		{"dummy-random", MachineConfig{Scheme: "obfusmem", Dummy: RandomAddress}, "c5c2bcb6be2ceb8a"},
		{"write-then-read", MachineConfig{Scheme: "obfusmem", Order: WriteThenRead}, "d1d1f4494fd057a8"},
		{"mac-encrypt-and-mac", MachineConfig{Scheme: "obfusmem", MAC: EncryptAndMAC}, "3c18f8c4f036a119"},
		{"mac-encrypt-then-mac", MachineConfig{Scheme: "obfusmem", MAC: EncryptThenMAC}, "d27f682eb10ab8c7"},
		{"auth-encrypt-then-mac", MachineConfig{Scheme: "obfusmem-auth", MAC: EncryptThenMAC}, "d27f682eb10ab8c7"},
		{"symmetric", MachineConfig{Scheme: "obfusmem", Symmetric: true}, "6a2f44226eb340ea"},
		{"auth-4ch-opt", MachineConfig{Scheme: "obfusmem-auth", Channels: 4, Policy: PolicyOPT}, "f167db9ecaa8c122"},
		{"auth-2ch-unopt", MachineConfig{Scheme: "obfusmem-auth", Channels: 2, Policy: PolicyUNOPT}, "1191c13d15ee593d"},
		{"auth-integrity", MachineConfig{Scheme: "obfusmem-auth", IntegrityTree: true}, "854fea7d185326ae"},
		{"timing-oblivious", MachineConfig{Scheme: "obfusmem", TimingOblivious: true}, "64a8f1d3b5130841"},
		{"unprotected-dram", MachineConfig{Scheme: "unprotected", DRAM: true}, "019f91299f74de2d"},
		{"auth-dram", MachineConfig{Scheme: "obfusmem-auth", DRAM: true}, "022e7b3603bca3b7"},
		{"auth-wearlevel", MachineConfig{Scheme: "obfusmem-auth", WearLevel: true}, "3c18f8c4f036a119"},
		{"oram-2ch", MachineConfig{Scheme: "oram", Channels: 2}, "a750dd2fa6ff110c"},
		{"palermo-2ch", MachineConfig{Scheme: "palermo", Channels: 2}, "02c2464c128bbd34"},
	}
	for _, c := range cases {
		c.cfg.Seed = 9
		m, err := NewMachine(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := m.RunBenchmark("milc", 2000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v\n%#v", res, m.Traffic())))
		if got := fmt.Sprintf("%x", sum[:8]); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
		}
	}
}
