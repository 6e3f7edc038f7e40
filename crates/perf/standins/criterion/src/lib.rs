//! Empty stand-in: nothing the benchmark builds uses `criterion`; it exists so the workspace resolves offline.
