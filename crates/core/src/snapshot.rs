//! Versioned model snapshots — everything a scoring server needs in one
//! self-describing text artifact.
//!
//! A snapshot bundles the four things required to reconstruct a trained
//! CohortNet exactly:
//!
//! 1. the [`CohortNetConfig`] (plus the training grid length `time_steps`,
//!    which the config itself does not record);
//! 2. the fitted [`Standardizer`] (raw request values must be standardized
//!    with the *training* statistics);
//! 3. every [`ParamStore`] weight (the tensor crate's checkpoint format);
//! 4. the discovery artefacts — per-feature state centroids, the cohort
//!    pool, and the mean interaction attention — when discovery was run.
//!
//! ## Format
//!
//! ```text
//! #cohortnet-snapshot v1
//! #section config <n_lines> <fnv1a64-hex>
//! ...payload...
//! #section scaler <n_lines> <fnv1a64-hex>
//! ...
//! #section params <n_lines> <fnv1a64-hex>
//! #section states <n_lines> <fnv1a64-hex>
//! #section pool <n_lines> <fnv1a64-hex>
//! #section attn <n_lines> <fnv1a64-hex>
//! #section quant <n_lines> <fnv1a64-hex>    (optional)
//! ```
//!
//! Sections appear in exactly that order; each header carries the payload's
//! line count and FNV-1a 64 checksum, so truncation and corruption fail
//! loudly with [`SnapshotError::Checksum`] instead of producing a silently
//! different model. All floats use Rust's shortest round-trip formatting, so
//! `save → load → save` is byte-identical and a loaded model scores
//! bit-identically to the in-memory one (both test-enforced).
//!
//! The trailing `quant` section ([`save_snapshot_quant`]) carries the int8
//! per-channel trunk quantization of [`crate::quant`]. It is *optional and
//! forward-compatible*: a snapshot without it loads and serves exactly as
//! before, and a quant payload whose scheme line this build does not
//! implement downgrades to the f32 path with a warning rather than failing
//! the load. A structurally corrupt quant section (bad checksum, malformed
//! payload) still fails loudly.
//!
//! Loading re-runs [`CohortNetConfig::validate`] and cross-checks every
//! section against the embedded config (feature counts, `k_states`,
//! `d_fused`, cohort representation width), rejecting inconsistent artifacts
//! with descriptive [`SnapshotError`]s.

use crate::cdm::{CentroidModel, FeatureStates};
use crate::config::CohortNetConfig;
use crate::discover::{Discovery, DiscoveryTiming};
use crate::export::{pool_from_str, pool_to_string, PoolParseError};
use crate::index::Fnv1a64;
use crate::infer::Inferencer;
use crate::model::CohortNetModel;
use crate::quant::{QuantInferencer, QuantParseError, QuantTable};
use cohortnet_ehr::standardize::{ScalerParseError, Standardizer};
use cohortnet_obs::obs_warn;
use cohortnet_tensor::checkpoint::{load_params, save_params, CheckpointError};
use cohortnet_tensor::{Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;

/// Current snapshot format version (the `v1` of the header line).
pub const SNAPSHOT_VERSION: &str = "v1";

const HEADER: &str = "#cohortnet-snapshot v1";
const SECTIONS: [&str; 6] = ["config", "scaler", "params", "states", "pool", "attn"];
/// Name of the optional trailing quantization section.
const QUANT_SECTION: &str = "quant";
/// Log target for snapshot load events.
const LOG: &str = "cohortnet.snapshot";

/// Everything loaded back from a snapshot.
pub struct LoadedModel {
    /// The reconstructed model (discovery artefacts included when present).
    pub model: CohortNetModel,
    /// The parameter store holding the restored weights.
    pub params: ParamStore,
    /// The training-time standardizer for incoming raw values.
    pub scaler: Standardizer,
    /// Grid length (time steps per patient) the model was trained on.
    pub time_steps: usize,
    /// The int8 trunk quantization stored in the snapshot's `quant`
    /// section — `None` for pre-quant snapshots and for quant payloads
    /// whose scheme this build does not implement (both serve f32).
    pub quant: Option<QuantTable>,
    /// FNV-1a-64 over the full snapshot text this model was loaded from.
    /// Surfaced on `/healthz` (and per replica by the fleet router) so an
    /// operator can tell which artifact a process is actually serving.
    pub fingerprint: u64,
}

impl LoadedModel {
    /// The snapshot fingerprint as the 16-hex-digit string `/healthz`
    /// reports.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// Compiles the loaded model into a tape-free [`Inferencer`].
    pub fn inferencer(&self) -> Inferencer {
        Inferencer::compile(&self.model, &self.params, self.time_steps)
    }

    /// Compiles the int8 quantized inferencer: from the snapshot's stored
    /// table when present, otherwise by quantizing the restored f32 weights
    /// with the same pure function (identical result for a fixed snapshot
    /// either way — the stored section just skips the work).
    pub fn quant_inferencer(&self) -> QuantInferencer {
        QuantInferencer::compile(
            &self.model,
            &self.params,
            self.time_steps,
            &self.quant_table(),
        )
    }

    /// The serving stack's model: the [`Inferencer`] with the int8 trunk
    /// when `quant` is requested ([`Inferencer::quantized`] reports which),
    /// the f32 one otherwise.
    pub fn scorer(&self, quant: bool) -> Inferencer {
        if quant {
            Inferencer::compile_with_table(
                &self.model,
                &self.params,
                self.time_steps,
                &self.quant_table(),
            )
        } else {
            self.inferencer()
        }
    }

    /// The snapshot's stored quant table, or one built from the f32 weights.
    fn quant_table(&self) -> Cow<'_, QuantTable> {
        let build = || Cow::Owned(QuantTable::build(&self.model, &self.params));
        self.quant.as_ref().map_or_else(build, Cow::Borrowed)
    }
}

/// Loud, typed failures while reading a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The first line is not the `v1` snapshot header.
    BadHeader,
    /// A `#section` header line is missing or malformed (1-based line no).
    BadSectionHeader(usize),
    /// Sections out of order or missing — carries the expected name.
    MissingSection(&'static str),
    /// A section's payload does not hash to the checksum in its header.
    Checksum {
        /// Section name.
        section: String,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually read.
        actual: u64,
    },
    /// The config section is unreadable or fails
    /// [`CohortNetConfig::validate`].
    Config(String),
    /// The scaler section is unreadable.
    Scaler(ScalerParseError),
    /// The params section is unreadable or does not match the architecture
    /// the embedded config implies.
    Params(CheckpointError),
    /// The states section is malformed (1-based line no within the section).
    States(usize),
    /// The pool section is unreadable.
    Pool(PoolParseError),
    /// The attention section is malformed.
    Attn(String),
    /// The quant section is structurally broken (an *unsupported scheme* is
    /// not an error — it downgrades to f32 with a warning).
    Quant(String),
    /// A section disagrees with the embedded config (feature count,
    /// `k_states`, widths, …).
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader => {
                write!(
                    f,
                    "missing `{HEADER}` header — not a snapshot or wrong version"
                )
            }
            SnapshotError::BadSectionHeader(n) => {
                write!(f, "malformed #section header at line {n}")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing (or misorders) section {name:?}")
            }
            SnapshotError::Checksum {
                section,
                expected,
                actual,
            } => write!(
                f,
                "section {section:?} is corrupt: checksum {actual:016x} != recorded {expected:016x}"
            ),
            SnapshotError::Config(why) => write!(f, "bad config section: {why}"),
            SnapshotError::Scaler(e) => write!(f, "bad scaler section: {e}"),
            SnapshotError::Params(e) => write!(f, "bad params section: {e}"),
            SnapshotError::States(n) => {
                write!(f, "malformed states section at section line {n}")
            }
            SnapshotError::Pool(e) => write!(f, "bad pool section: {e}"),
            SnapshotError::Attn(why) => write!(f, "bad attention section: {why}"),
            SnapshotError::Quant(why) => write!(f, "bad quant section: {why}"),
            SnapshotError::Mismatch(why) => {
                write!(f, "snapshot is internally inconsistent: {why}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a-64 of a byte string — the hash behind section checksums, the
/// snapshot fingerprint on `/healthz`, and the fleet router's consistent
/// hash ring.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

fn push_section(out: &mut String, name: &str, payload: &str) {
    debug_assert!(payload.ends_with('\n'), "section payloads end with newline");
    let n = payload.lines().count();
    let sum = fnv64(payload.as_bytes());
    let _ = writeln!(out, "#section {name} {n} {sum:016x}");
    out.push_str(payload);
}

fn config_to_text(cfg: &CohortNetConfig, time_steps: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "d_embed={}", cfg.d_embed);
    let _ = writeln!(s, "d_trend={}", cfg.d_trend);
    let _ = writeln!(s, "d_fused={}", cfg.d_fused);
    let _ = writeln!(s, "d_hidden={}", cfg.d_hidden);
    let _ = writeln!(s, "d_agg={}", cfg.d_agg);
    let _ = writeln!(s, "d_att={}", cfg.d_att);
    let _ = writeln!(s, "d_value={}", cfg.d_value);
    let _ = writeln!(s, "k_states={}", cfg.k_states);
    let _ = writeln!(s, "n_top={}", cfg.n_top);
    let _ = writeln!(s, "min_frequency={}", cfg.min_frequency);
    let _ = writeln!(s, "min_patients={}", cfg.min_patients);
    let _ = writeln!(s, "max_cohorts_per_feature={}", cfg.max_cohorts_per_feature);
    let _ = writeln!(s, "state_fit_samples={}", cfg.state_fit_samples);
    let _ = writeln!(s, "n_labels={}", cfg.n_labels);
    let bounds = cfg
        .bounds
        .iter()
        .map(|&(a, b)| format!("{a}:{b}"))
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(s, "bounds={bounds}");
    let _ = writeln!(s, "epochs_pretrain={}", cfg.epochs_pretrain);
    let _ = writeln!(s, "epochs_exploit={}", cfg.epochs_exploit);
    let _ = writeln!(s, "batch_size={}", cfg.batch_size);
    let _ = writeln!(s, "lr={}", cfg.lr);
    let _ = writeln!(s, "seed={}", cfg.seed);
    let _ = writeln!(s, "verbose={}", cfg.verbose);
    let _ = writeln!(s, "use_interactions={}", cfg.use_interactions);
    let _ = writeln!(s, "use_trends={}", cfg.use_trends);
    let _ = writeln!(s, "adaptive_k={}", cfg.adaptive_k);
    match cfg.mask_threshold {
        Some(v) => {
            let _ = writeln!(s, "mask_threshold={v}");
        }
        None => {
            let _ = writeln!(s, "mask_threshold=none");
        }
    }
    let _ = writeln!(s, "n_threads={}", cfg.n_threads);
    let _ = writeln!(s, "time_steps={time_steps}");
    s
}

fn config_from_text(text: &str) -> Result<(CohortNetConfig, usize), SnapshotError> {
    let mut map: HashMap<&str, &str> = HashMap::new();
    for line in text.lines() {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| SnapshotError::Config(format!("expected key=value, got {line:?}")))?;
        if map.insert(k, v).is_some() {
            return Err(SnapshotError::Config(format!("duplicate key {k:?}")));
        }
    }
    fn req<'a>(map: &HashMap<&str, &'a str>, key: &str) -> Result<&'a str, SnapshotError> {
        map.get(key)
            .copied()
            .ok_or_else(|| SnapshotError::Config(format!("missing key {key:?}")))
    }
    fn num<T: std::str::FromStr>(map: &HashMap<&str, &str>, key: &str) -> Result<T, SnapshotError> {
        req(map, key)?
            .parse()
            .map_err(|_| SnapshotError::Config(format!("key {key:?} is not a valid number")))
    }
    let bounds_text = req(&map, "bounds")?;
    let bounds: Vec<(f32, f32)> = if bounds_text.is_empty() {
        Vec::new()
    } else {
        bounds_text
            .split(',')
            .map(|pair| {
                let (a, b) = pair
                    .split_once(':')
                    .ok_or_else(|| SnapshotError::Config(format!("bound {pair:?} is not lo:hi")))?;
                let lo: f32 = a.parse().map_err(|_| {
                    SnapshotError::Config(format!("bound {pair:?} has a bad lower value"))
                })?;
                let hi: f32 = b.parse().map_err(|_| {
                    SnapshotError::Config(format!("bound {pair:?} has a bad upper value"))
                })?;
                Ok((lo, hi))
            })
            .collect::<Result<_, SnapshotError>>()?
    };
    let mask_threshold = match req(&map, "mask_threshold")? {
        "none" => None,
        v => Some(v.parse().map_err(|_| {
            SnapshotError::Config("mask_threshold is neither `none` nor a number".into())
        })?),
    };
    let cfg = CohortNetConfig {
        d_embed: num(&map, "d_embed")?,
        d_trend: num(&map, "d_trend")?,
        d_fused: num(&map, "d_fused")?,
        d_hidden: num(&map, "d_hidden")?,
        d_agg: num(&map, "d_agg")?,
        d_att: num(&map, "d_att")?,
        d_value: num(&map, "d_value")?,
        k_states: num(&map, "k_states")?,
        n_top: num(&map, "n_top")?,
        min_frequency: num(&map, "min_frequency")?,
        min_patients: num(&map, "min_patients")?,
        max_cohorts_per_feature: num(&map, "max_cohorts_per_feature")?,
        state_fit_samples: num(&map, "state_fit_samples")?,
        n_labels: num(&map, "n_labels")?,
        bounds,
        epochs_pretrain: num(&map, "epochs_pretrain")?,
        epochs_exploit: num(&map, "epochs_exploit")?,
        batch_size: num(&map, "batch_size")?,
        lr: num(&map, "lr")?,
        seed: num(&map, "seed")?,
        verbose: num(&map, "verbose")?,
        use_interactions: num(&map, "use_interactions")?,
        use_trends: num(&map, "use_trends")?,
        adaptive_k: num(&map, "adaptive_k")?,
        mask_threshold,
        n_threads: num(&map, "n_threads")?,
    };
    let time_steps: usize = num(&map, "time_steps")?;
    Ok((cfg, time_steps))
}

fn states_to_text(fs: &FeatureStates) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "k\t{}", fs.k);
    let _ = writeln!(s, "d_fused\t{}", fs.d_fused);
    for (f, m) in fs.models.iter().enumerate() {
        match m {
            None => {
                let _ = writeln!(s, "feature\t{f}\tnone");
            }
            Some(cm) => {
                let _ = write!(s, "feature\t{f}\t{}\t{}", cm.k, cm.dim);
                for v in &cm.centroids {
                    let _ = write!(s, "\t{v}");
                }
                s.push('\n');
            }
        }
    }
    s
}

fn states_from_text(text: &str) -> Result<FeatureStates, SnapshotError> {
    let mut lines = text.lines().enumerate();
    let k: usize = match lines.next() {
        Some((_, l)) => l
            .strip_prefix("k\t")
            .and_then(|v| v.parse().ok())
            .ok_or(SnapshotError::States(1))?,
        None => return Err(SnapshotError::States(1)),
    };
    let d_fused: usize = match lines.next() {
        Some((_, l)) => l
            .strip_prefix("d_fused\t")
            .and_then(|v| v.parse().ok())
            .ok_or(SnapshotError::States(2))?,
        None => return Err(SnapshotError::States(2)),
    };
    let mut models = Vec::new();
    for (idx, line) in lines {
        let n = idx + 1;
        let mut parts = line.split('\t');
        if parts.next() != Some("feature") {
            return Err(SnapshotError::States(n));
        }
        let f: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(SnapshotError::States(n))?;
        if f != models.len() {
            return Err(SnapshotError::States(n));
        }
        let third = parts.next().ok_or(SnapshotError::States(n))?;
        if third == "none" {
            models.push(None);
            continue;
        }
        let mk: usize = third.parse().map_err(|_| SnapshotError::States(n))?;
        let dim: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(SnapshotError::States(n))?;
        let centroids: Vec<f32> = parts
            .map(|s| s.parse().map_err(|_| SnapshotError::States(n)))
            .collect::<Result<_, _>>()?;
        if centroids.len() != mk * dim {
            return Err(SnapshotError::States(n));
        }
        models.push(Some(CentroidModel {
            centroids,
            dim,
            k: mk,
        }));
    }
    Ok(FeatureStates { models, k, d_fused })
}

fn attn_to_text(attn: &Matrix) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "shape\t{}\t{}", attn.rows(), attn.cols());
    for r in 0..attn.rows() {
        s.push_str("row");
        for v in attn.row(r) {
            let _ = write!(s, "\t{v}");
        }
        s.push('\n');
    }
    s
}

fn attn_from_text(text: &str) -> Result<Matrix, SnapshotError> {
    let mut lines = text.lines();
    let (rows, cols) = match lines.next().map(|l| l.split('\t').collect::<Vec<_>>()) {
        Some(parts) if parts.len() == 3 && parts[0] == "shape" => {
            let r: usize = parts[1]
                .parse()
                .map_err(|_| SnapshotError::Attn("bad row count".into()))?;
            let c: usize = parts[2]
                .parse()
                .map_err(|_| SnapshotError::Attn("bad col count".into()))?;
            (r, c)
        }
        _ => return Err(SnapshotError::Attn("missing shape line".into())),
    };
    let mut data = Vec::with_capacity(rows * cols);
    for (i, line) in lines.enumerate() {
        let mut parts = line.split('\t');
        if parts.next() != Some("row") {
            return Err(SnapshotError::Attn(format!("row {i} is malformed")));
        }
        let vals: Vec<f32> = parts
            .map(|s| {
                s.parse()
                    .map_err(|_| SnapshotError::Attn(format!("row {i} has a bad value")))
            })
            .collect::<Result<_, _>>()?;
        if vals.len() != cols {
            return Err(SnapshotError::Attn(format!(
                "row {i} has {} values, expected {cols}",
                vals.len()
            )));
        }
        data.extend(vals);
    }
    if data.len() != rows * cols {
        return Err(SnapshotError::Attn(format!(
            "expected {rows} rows, got {}",
            data.len() / cols.max(1)
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Serialises a trained model (weights, scaler, discovery artefacts) into
/// the `v1` snapshot text.
pub fn save_snapshot(
    model: &CohortNetModel,
    ps: &ParamStore,
    scaler: &Standardizer,
    time_steps: usize,
) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    push_section(&mut out, "config", &config_to_text(&model.cfg, time_steps));
    push_section(&mut out, "scaler", &scaler.to_text());
    push_section(&mut out, "params", &save_params(ps));
    match &model.discovery {
        Some(d) => {
            push_section(&mut out, "states", &states_to_text(&d.states));
            push_section(&mut out, "pool", &pool_to_string(&d.pool));
            push_section(&mut out, "attn", &attn_to_text(&d.attn_mean));
        }
        None => {
            push_section(&mut out, "states", "none\n");
            push_section(&mut out, "pool", "none\n");
            push_section(&mut out, "attn", "none\n");
        }
    }
    out
}

/// [`save_snapshot`] plus the optional trailing `quant` section: the int8
/// per-channel trunk quantization computed here, at save time, so serving
/// replicas never redo the scale computation.
pub fn save_snapshot_quant(
    model: &CohortNetModel,
    ps: &ParamStore,
    scaler: &Standardizer,
    time_steps: usize,
) -> String {
    let mut out = save_snapshot(model, ps, scaler, time_steps);
    let table = QuantTable::build(model, ps);
    push_section(&mut out, QUANT_SECTION, &table.to_text());
    out
}

/// One `#section` header split into its payload, advancing `cursor`.
fn read_section(
    lines: &[&str],
    cursor: &mut usize,
    expected: &'static str,
) -> Result<String, SnapshotError> {
    let header = *lines
        .get(*cursor)
        .ok_or(SnapshotError::MissingSection(expected))?;
    let parts: Vec<&str> = header.split(' ').collect();
    if parts.len() != 4 || parts[0] != "#section" {
        return Err(SnapshotError::BadSectionHeader(*cursor + 1));
    }
    if parts[1] != expected {
        return Err(SnapshotError::MissingSection(expected));
    }
    let n: usize = parts[2]
        .parse()
        .map_err(|_| SnapshotError::BadSectionHeader(*cursor + 1))?;
    let sum = u64::from_str_radix(parts[3], 16)
        .map_err(|_| SnapshotError::BadSectionHeader(*cursor + 1))?;
    *cursor += 1;
    if *cursor + n > lines.len() {
        return Err(SnapshotError::Checksum {
            section: expected.to_string(),
            expected: sum,
            actual: 0, // truncated before the payload even ends
        });
    }
    let mut payload = lines[*cursor..*cursor + n].join("\n");
    payload.push('\n');
    *cursor += n;
    let actual = fnv64(payload.as_bytes());
    if actual != sum {
        return Err(SnapshotError::Checksum {
            section: expected.to_string(),
            expected: sum,
            actual,
        });
    }
    Ok(payload)
}

/// Splits the snapshot into its six required section payloads plus the
/// optional `quant` payload, verifying the header, order, line counts and
/// checksums. Trailing content that is not a quant section header is
/// ignored (as it always was), so older readers stay compatible.
fn split_sections(text: &str) -> Result<(Vec<String>, Option<String>), SnapshotError> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first().map(|l| l.trim()) != Some(HEADER) {
        return Err(SnapshotError::BadHeader);
    }
    let mut cursor = 1usize;
    let mut payloads = Vec::with_capacity(SECTIONS.len());
    for expected in SECTIONS {
        payloads.push(read_section(&lines, &mut cursor, expected)?);
    }
    let quant = match lines.get(cursor) {
        Some(l) if l.starts_with(&format!("#section {QUANT_SECTION} ")) => {
            Some(read_section(&lines, &mut cursor, QUANT_SECTION)?)
        }
        _ => None,
    };
    Ok((payloads, quant))
}

/// Reconstructs a model from snapshot text, cross-checking every section
/// against the embedded config.
pub fn load_snapshot(text: &str) -> Result<LoadedModel, SnapshotError> {
    // Chaos site `snapshot.corrupt`: when a plan schedules it, one payload
    // byte is flipped before parsing, so every caller's corrupt-snapshot
    // path (typed error, CLI fallback) can be exercised against a real
    // artifact. Inert (one relaxed atomic load) without a plan.
    if let Some(corrupted) = cohortnet_chaos::corrupt_if_fires("snapshot.corrupt", text) {
        return load_snapshot_inner(&corrupted);
    }
    load_snapshot_inner(text)
}

fn load_snapshot_inner(text: &str) -> Result<LoadedModel, SnapshotError> {
    let fingerprint = fnv64(text.as_bytes());
    let (sections, quant_payload) = split_sections(text)?;
    // Parse the optional quant section first so a scheme from the future
    // downgrades to f32 (warn, not error) while structural breakage still
    // fails the load like any other corrupt section.
    let quant = match &quant_payload {
        None => None,
        Some(payload) => match QuantTable::from_text(payload) {
            Ok(table) => Some(table),
            Err(QuantParseError::UnsupportedScheme(scheme)) => {
                obs_warn!(
                    target: LOG,
                    "snapshot quant section uses an unsupported scheme; serving will fall back to f32",
                    scheme = scheme,
                    supported = crate::quant::QUANT_SCHEME,
                );
                None
            }
            Err(e @ QuantParseError::Malformed { .. }) => {
                return Err(SnapshotError::Quant(e.to_string()))
            }
        },
    };
    let (cfg, time_steps) = config_from_text(&sections[0])?;
    cfg.validate().map_err(SnapshotError::Config)?;
    let nf = cfg.n_features();
    if nf == 0 {
        return Err(SnapshotError::Config(
            "config has no feature bounds — cannot rebuild the model".into(),
        ));
    }
    if time_steps == 0 {
        return Err(SnapshotError::Config(
            "time_steps must be at least 1".into(),
        ));
    }
    let scaler = Standardizer::from_text(&sections[1]).map_err(SnapshotError::Scaler)?;
    if scaler.mean.len() != nf {
        return Err(SnapshotError::Mismatch(format!(
            "scaler covers {} features but the config declares {nf}",
            scaler.mean.len()
        )));
    }
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
    load_params(&mut ps, &sections[2]).map_err(SnapshotError::Params)?;

    let nones = [&sections[3], &sections[4], &sections[5]]
        .iter()
        .filter(|s| s.as_str() == "none\n")
        .count();
    if nones == 3 {
        return Ok(LoadedModel {
            model,
            params: ps,
            scaler,
            time_steps,
            quant,
            fingerprint,
        });
    }
    if nones != 0 {
        return Err(SnapshotError::Mismatch(
            "discovery sections (states/pool/attn) must be all present or all `none`".into(),
        ));
    }
    let states = states_from_text(&sections[3])?;
    if states.models.len() != nf {
        return Err(SnapshotError::Mismatch(format!(
            "states section covers {} features but the config declares {nf}",
            states.models.len()
        )));
    }
    if states.k != cfg.k_states {
        return Err(SnapshotError::Mismatch(format!(
            "states section has k = {} but the config says k_states = {}",
            states.k, cfg.k_states
        )));
    }
    if states.d_fused != cfg.d_fused {
        return Err(SnapshotError::Mismatch(format!(
            "states section was fitted on d_fused = {} but the config says {}",
            states.d_fused, cfg.d_fused
        )));
    }
    for (f, m) in states.models.iter().enumerate() {
        if let Some(cm) = m {
            if cm.dim != cfg.d_fused {
                return Err(SnapshotError::Mismatch(format!(
                    "feature {f}'s centroids have dim {} but the config says d_fused = {}",
                    cm.dim, cfg.d_fused
                )));
            }
            if cm.k == 0 || cm.k > cfg.k_states {
                return Err(SnapshotError::Mismatch(format!(
                    "feature {f} has {} states, outside 1..={}",
                    cm.k, cfg.k_states
                )));
            }
        }
    }
    let pool = pool_from_str(&sections[4]).map_err(SnapshotError::Pool)?;
    if pool.masks.len() != nf {
        return Err(SnapshotError::Mismatch(format!(
            "pool covers {} features but the config declares {nf}",
            pool.masks.len()
        )));
    }
    if pool.repr_dim != cfg.cohort_repr_dim() {
        return Err(SnapshotError::Mismatch(format!(
            "pool representation width {} != config's cohort_repr_dim {}",
            pool.repr_dim,
            cfg.cohort_repr_dim()
        )));
    }
    let attn_mean = attn_from_text(&sections[5])?;
    if attn_mean.shape() != (nf, nf) {
        return Err(SnapshotError::Mismatch(format!(
            "attention matrix is {:?} but the config declares {nf} features",
            attn_mean.shape()
        )));
    }
    model.discovery = Some(Discovery {
        states,
        pool,
        attn_mean,
        timing: DiscoveryTiming::default(),
    });
    Ok(LoadedModel {
        model,
        params: ps,
        scaler,
        time_steps,
        quant,
        fingerprint,
    })
}
