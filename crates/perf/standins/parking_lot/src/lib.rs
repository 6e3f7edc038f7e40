//! Empty stand-in: nothing the benchmark builds uses `parking_lot`; it exists so the workspace resolves offline.
