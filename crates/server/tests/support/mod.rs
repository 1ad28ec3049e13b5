//! Helpers shared by the server's integration suites.

pub mod hostile;
