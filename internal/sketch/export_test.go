package sketch

// Exported to the external property tests.
var ChunkViews = chunkViews
var ResultRoundTrip = resultRoundTrip
