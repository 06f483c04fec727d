package cache

import "rwp/internal/mem"

// Fingerprint exposes a line's flag-byte fingerprint to the external
// tests, which build streams of lines that share one.
func (c *Cache) Fingerprint(line mem.LineAddr) uint8 { return c.fingerprint(line) }
