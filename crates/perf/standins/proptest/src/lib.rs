//! Empty stand-in: nothing the benchmark builds uses `proptest`; it exists so the workspace resolves offline.
