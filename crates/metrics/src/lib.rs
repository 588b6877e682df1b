//! # mltrace-metrics
//!
//! The monitoring substrate of the mltrace reproduction: every quantity
//! the paper's `beforeRun`/`afterRun` triggers compute, implemented from
//! scratch —
//!
//! * streaming descriptive statistics including skewness/kurtosis
//!   ([`desc`]), streaming quantiles ([`quantile`]), histograms
//!   ([`histogram`]);
//! * distribution divergences — KL, JS, PSI, total variation
//!   ([`divergence`]);
//! * hypothesis tests — two-sample Kolmogorov–Smirnov, Welch t — with
//!   p-values from in-crate special functions
//!   ([`stattests`], [`special`]);
//! * drift detectors combining all of the above ([`drift`]);
//! * ML performance metrics: confusion-matrix family, ROC-AUC, log loss,
//!   regression errors ([`mlmetrics`]);
//! * SLA definitions and fatigue-suppressing alerting ([`sla`], [`alert`]),
//!   folded into deduplicated incident lifecycles ([`incident`]).

#![warn(missing_docs)]

pub mod alert;
pub mod calibration;
pub mod changepoint;
pub mod desc;
pub mod divergence;
pub mod drift;
pub mod histogram;
pub mod incident;
pub mod mlmetrics;
pub mod plane;
pub mod quantile;
pub mod sla;
pub mod special;
pub mod stattests;
pub mod window;

pub use alert::{Alert, AlertManager, AlertOutcome, AlertRule, AlertStats, Severity};
pub use calibration::{ReliabilityBin, ReliabilityCurve};
pub use changepoint::{Cusum, EwmaChart, Shift};
pub use desc::StreamingMoments;
pub use divergence::{
    histogram_kl, histogram_psi, js_divergence, kl_divergence, psi, total_variation,
};
pub use drift::{DriftConfig, DriftDetector, DriftFinding, DriftMethod};
pub use histogram::Histogram;
pub use incident::{Incident, IncidentChange, IncidentManager, IncidentPhase};
pub use mlmetrics::{brier_score, log_loss, mae, mse, r2, rmse, roc_auc, ConfusionMatrix};
pub use plane::{DriftScore, MonitorConfig, MonitorPlane, MonitorSummary, WindowRoll};
pub use quantile::{exact_median, exact_quantile, P2Quantile};
pub use sla::{Aggregation, Comparator, Sla, SlaStatus};
pub use stattests::{ks_two_sample, welch_t_test, TestResult};
pub use window::{CountWindow, TimeWindow};
