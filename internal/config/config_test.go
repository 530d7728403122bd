package config

import "testing"

func TestDefaultMatchesTable1(t *testing.T) {
	p := Default()
	if p.Vmax != 3.5 || p.Vmin != 2.8 {
		t.Error("Vmax/Vmin")
	}
	if p.CapacitorF != 470e-9 {
		t.Error("capacitor")
	}
	if p.NVMSize != 16<<20 || p.NVMWriteNs != 120 || p.NVMReadNs != 20 {
		t.Error("NVM parameters")
	}
	if p.CacheSize != 4<<10 || p.CacheWays != 2 {
		t.Error("cache geometry")
	}
	if p.StoreThreshold != 64 {
		t.Error("store threshold")
	}
	if p.BackupDelayNs != 1500 || p.RestoreDelayNs != 10300 || p.SweepRestoreDelayNs != 1100 {
		t.Error("propagation delays")
	}
}

func TestThresholdSelectors(t *testing.T) {
	p := Default()
	nvp := p.WithNVPThresholds()
	if nvp.VBackup != 2.9 || nvp.VRestore != 3.2 {
		t.Error("NVP thresholds")
	}
	nvs := p.WithNVSRAMThresholds()
	if nvs.VBackup != 3.2 || nvs.VRestore != 3.4 {
		t.Error("NVSRAM thresholds")
	}
	sw := p.WithSweepThresholds()
	if sw.VBackup != 0 || sw.VRestore != 3.3 {
		t.Error("Sweep thresholds")
	}
	if sw.BackupDelayNs != 0 || sw.RestoreDelayNs != 1100 {
		t.Error("Sweep delays")
	}
}

func TestVBackupBoost(t *testing.T) {
	p := Default()
	p.VBackupBoost = 0.4
	boosted := p.WithNVPThresholds()
	plain := Default().WithNVPThresholds()
	if boosted.VBackup <= plain.VBackup {
		t.Error("boost did not raise the threshold")
	}
	if boosted.VBackup >= boosted.VRestore {
		t.Error("boost crossed the restore threshold")
	}
}
