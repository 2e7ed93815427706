//! One module per paper artefact. See `DESIGN.md` §6 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3a;
pub mod fig3b;
pub mod fig3c;
pub mod fig5;
pub mod fig6;
pub mod fig89;
pub mod fleet;
pub mod infer_geometry;
pub mod infer_policy;
pub mod infer_size;
pub mod sched_sweep;
pub mod table1;
pub mod table2;
