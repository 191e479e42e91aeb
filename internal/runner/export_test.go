package runner

// EntryPath is a key's on-disk location, for the external tests.
func EntryPath(c *Cache, key string) string { return c.path(key) }
