//! # ucad-model
//!
//! The Trans-DAS transformer (§4 of the UCAD paper) built on the
//! [`ucad_nn`] autograd substrate, together with the top-*p* detector (§5.3)
//! and the Table 3 ablation variants.
//!
//! Trans-DAS differs from a vanilla transformer in three ways, each
//! individually toggleable through [`TransDasConfig`]:
//!
//! 1. **Order-free embedding** (§4.2): no positional encoding, so
//!    heterogeneous operation orderings with the same semantics embed
//!    identically.
//! 2. **Target-disconnect masking** (§4.3): output position `i` attends to
//!    the full bidirectional context *except* input `i+1` — its own
//!    prediction target.
//! 3. **Triplet + cross-entropy objective** (Eq. 11) with negative sampling
//!    of keys absent from the session, plus L2 regularization (realized as
//!    decoupled weight decay in the optimizer).

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod detect;
pub mod error;
pub mod mask;
pub mod model;
pub mod persist;

pub use cache::{CacheStats, ScoreCache, ScoreKind};
pub use config::{MaskMode, TransDasConfig};
pub use detect::{
    Detection, DetectionMode, Detector, DetectorConfig, DetectorConfigBuilder, OpVerdict,
    PositionVerdict, VerdictDetail,
};
pub use error::UcadError;
pub use mask::{build_mask, NEG_INF};
pub use model::{TrainReport, TransDas, Window};
pub use persist::PersistError;
