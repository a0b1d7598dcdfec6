package smp

import (
	"fmt"

	"jetty/internal/addr"
	"jetty/internal/cache"
	"jetty/internal/jetty"
)

// Config describes one simulated machine.
type Config struct {
	CPUs      int
	L1        cache.L1Config
	L2        cache.L2Config
	WBEntries int // write-buffer entries per CPU

	// Filters are the JETTY configurations instantiated per CPU as
	// observers. May be empty (baseline measurement runs).
	Filters []jetty.Config
}

// PaperConfig returns the paper's base machine (§4.1): a 4-way SMP, 64 KB
// direct-mapped L1 with 32-byte lines, 1 MB 4-way L2 with 64-byte blocks
// of two 32-byte subblocks, MOESI at subblock granularity, 8-entry write
// buffers.
func PaperConfig(cpus int) Config {
	return Config{
		CPUs:      cpus,
		L1:        cache.L1Config{SizeBytes: 64 << 10, LineBytes: 32},
		L2:        cache.L2Config{SizeBytes: 1 << 20, Assoc: 4, Geom: addr.Subblocked},
		WBEntries: 8,
	}
}

// WithFilters returns a copy of the config carrying the given filter set.
func (c Config) WithFilters(filters ...jetty.Config) Config {
	c.Filters = append([]jetty.Config(nil), filters...)
	return c
}

// WithoutFilters returns a copy of the config with no filter bank. The
// fused sweep planner groups cells by this: machines that differ only
// in their observer bank share one reference-stream replay.
func (c Config) WithoutFilters() Config {
	c.Filters = nil
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CPUs < 1 || c.CPUs > 64 {
		return fmt.Errorf("smp: %d CPUs out of range 1..64", c.CPUs)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes > c.L2.Geom.UnitBytes() {
		return fmt.Errorf("smp: L1 lines (%dB) must not exceed L2 coherence units (%dB)",
			c.L1.LineBytes, c.L2.Geom.UnitBytes())
	}
	if c.L2.Blocks() > cache.MaxCachedFrames {
		// The L1 caches each line's covering L2 frame in a 28-bit field.
		return fmt.Errorf("smp: L2 with %d frames exceeds the %d the L1 can reference",
			c.L2.Blocks(), cache.MaxCachedFrames)
	}
	if c.WBEntries < 0 || c.WBEntries > 256 {
		return fmt.Errorf("smp: %d write-buffer entries out of range 0..256", c.WBEntries)
	}
	for _, f := range c.Filters {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}
