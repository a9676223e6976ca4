//! Warning provenance: the full derivation story of each warning.
//!
//! Each warning carries four layers of evidence:
//!
//! 1. a stable content-derived id ([`nadroid_detector::warning_id`]),
//! 2. the Datalog derivation tree of its racy-pair fact under the two
//!    rules that encode §5 (see [`DerivationNode`]),
//! 3. a filter audit trail — every §6 filter that examined the warning,
//!    its verdict, and concrete evidence for it — and
//! 4. the happens-before edges the [`nadroid_hb::HbGraph`] holds between
//!    the warning's two threads (or the `mhp` fact that none exist).
//!
//! The audit is built from [`Filters::verdict`], whose `pruned` bit *is*
//! [`Filters::prunes`], so it can never disagree with the Figure 5
//! tallies the drivers report. [`render_provenance_json`] serializes
//! everything under the `nadroid-provenance/4` schema (v2 added the
//! document-level `program_hash` and the per-warning `hb` evidence; v3
//! added the optional per-warning `confirmation` block written by
//! `nadroid-confirm` — verdict, replayable witness schedule, search
//! statistics; v4 added the optional per-warning `refutation` block:
//! the sound reachability refuter's reason and full contradiction
//! chain); [`render_explain`] is the human-readable form behind
//! `nadroid explain`.
//!
//! [`Filters::verdict`]: nadroid_filters::Filters::verdict
//! [`Filters::prunes`]: nadroid_filters::Filters::prunes

use crate::json::{esc, program_hash, JsonValue};
use crate::report::{render_warning, RenderedWarning};
use crate::Analysis;
use nadroid_detector::{warning_id, UafWarning};
use nadroid_filters::refute::{Refutation, RefutationReason};
use nadroid_filters::{FilterKind, FilterVerdict};
use nadroid_hb::HbEdgeKind;
use nadroid_obs as obs;
use std::fmt::Write as _;

/// The provenance schema the current build writes — and the only one
/// [`render_explain_from_json`] reads: a cached document in an older
/// schema is stale, and `nadroid explain` re-analyzes instead.
pub const PROVENANCE_SCHEMA: &str = "nadroid-provenance/4";

/// One node of a derivation tree, rendered in source terms.
///
/// The tree derives a warning's `racyPair` fact from base facts over raw
/// ids (instructions, fields, objects, modeled threads) with the two
/// rules that state §5's detection as Datalog:
///
/// ```text
/// aliasedPair(u, f) :- useAt(u, fld), freeAt(f, fld),
///                      ptsUse(u, o), ptsFree(f, o), sharedObj(o).
/// racyPair(u, f, t1, t2) :- aliasedPair(u, f), runsOn(u, t1),
///                           runsOn(f, t2), distinctThreads(t1, t2).
/// ```
///
/// `sharedObj` holds the thread-escaping objects (every object when the
/// detector's escape requirement is off). The detector checks exactly
/// these conditions, so each tree is built from the warning itself; the
/// witness `o` is the first of the warning's shared objects, the lowest
/// numbered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationNode {
    /// The fact in source terms, e.g. `useAt(Console.onClick#3, Console.bound)`.
    pub fact: String,
    /// The relation name.
    pub relation: String,
    /// The raw tuple (instruction / field / object / thread ids).
    pub tuple: Vec<u32>,
    /// The deriving rule, rendered — `None` for base (EDB) facts.
    pub rule: Option<String>,
    /// Derivations of the rule's premises, in body order.
    pub premises: Vec<DerivationNode>,
}

impl DerivationNode {
    /// Whether this node is a base fact.
    #[must_use]
    pub fn is_base(&self) -> bool {
        self.rule.is_none()
    }
}

/// Dynamic-confirmation verdict for one warning (the `nadroid-confirm`
/// classification; see `docs/confirm.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfirmVerdict {
    /// A schedule was found that manifests the NPE at the warning's use
    /// instruction with the warning's free as the killing store; the
    /// minimized, replay-verified schedule is attached.
    Confirmed,
    /// The search ended without a witness and without a completeness
    /// proof (its state budget ran out, or its event and step bounds cut
    /// some path) — the warning stays a static hypothesis.
    Unconfirmed,
    /// The bounded exploration drained the *entire* reachable state
    /// space (no budget truncation) without manifesting the pair, or a
    /// sound `mustHb` ordering between the two threads rules the
    /// interleaving out — no HB-consistent schedule reaches the use
    /// after the free within the model's bounds.
    Infeasible,
}

impl ConfirmVerdict {
    /// The stable lowercase wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Confirmed => "confirmed",
            Self::Unconfirmed => "unconfirmed",
            Self::Infeasible => "infeasible",
        }
    }

    /// Parse a wire name back; `None` for anything else.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "confirmed" => Some(Self::Confirmed),
            "unconfirmed" => Some(Self::Unconfirmed),
            "infeasible" => Some(Self::Infeasible),
            _ => None,
        }
    }
}

impl std::fmt::Display for ConfirmVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The dynamic-confirmation record attached to a warning's provenance
/// (the v3 `confirmation` block). Produced by `nadroid-confirm`;
/// [`Analysis::warning_provenances`] always leaves it `None` — static
/// results never depend on confirmation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Confirmation {
    /// The classification.
    pub verdict: ConfirmVerdict,
    /// One line of evidence: which search phase decided, and why.
    pub reason: String,
    /// Interpreter states explored across all search phases.
    pub states_explored: u64,
    /// The minimized witness schedule in the `nadroid-dynamic` schedule
    /// codec, present iff `verdict == Confirmed`. Replaying it on the
    /// same program reproduces the NPE at the warning's use site.
    pub schedule: Option<String>,
    /// The NPE site in source terms (`Class.method#idx`), present iff
    /// `verdict == Confirmed`.
    pub npe_at: Option<String>,
}

/// The complete provenance of one warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarningProvenance {
    /// Stable content-derived id (`w:` + 16 hex digits).
    pub id: String,
    /// The §7 rendering (field, sites, pair type, lineages).
    pub rendered: RenderedWarning,
    /// Whether the warning survived the configured filter pipeline.
    pub survived: bool,
    /// The first filter (pipeline order, sound before unsound) that
    /// pruned it, if any.
    pub pruned_by: Option<FilterKind>,
    /// Verdict and evidence of every filter that examined the warning:
    /// the configured sound filters always; the unsound filters only if
    /// the warning survived the sound pass (mirroring the pipeline).
    pub audit: Vec<FilterVerdict>,
    /// Happens-before evidence between the warning's two threads: every
    /// direct [`nadroid_hb::HbGraph`] edge in either direction, the
    /// `mustHb` path when one exists, or the `mhp` fact when neither
    /// direction is soundly ordered.
    pub hb: Vec<String>,
    /// The derivation tree of the warning's `racyPair` fact.
    pub derivation: Option<DerivationNode>,
    /// The sound reachability refuter's verdict, when it refuted this
    /// warning after it survived every configured filter: the reason
    /// plus the full contradiction chain (the v4 `refutation` block).
    pub refutation: Option<Refutation>,
    /// Dynamic-confirmation verdict, once `nadroid-confirm` has run.
    /// `None` from a fresh [`Analysis::warning_provenances`] — static
    /// analysis never fills it in.
    pub confirmation: Option<Confirmation>,
}

// The two rules of the encoding `DerivationNode` documents, as nodes
// name them.
const ALIASED_PAIR_RULE: &str = "rule 0: aliasedPair(v0, v2) :- useAt(v0, v1), \
     freeAt(v2, v1), ptsUse(v0, v3), ptsFree(v2, v3), sharedObj(v3).";
const RACY_PAIR_RULE: &str = "rule 1: racyPair(v0, v1, v2, v3) :- aliasedPair(v0, v1), \
     runsOn(v0, v2), runsOn(v1, v3), distinctThreads(v2, v3).";

impl Analysis<'_> {
    /// Build the provenance of every raw warning (pruned ones included —
    /// their audit shows *why* they were pruned).
    #[must_use]
    pub fn warning_provenances(&self) -> Vec<WarningProvenance> {
        let _span = obs::span("provenance");
        let filters = self.filters();
        self.warnings
            .iter()
            .map(|w| {
                let sound: Vec<FilterVerdict> = self
                    .config
                    .sound_filters
                    .iter()
                    .map(|&k| filters.verdict(k, w))
                    .collect();
                let sound_survived = sound.iter().all(|v| !v.pruned);
                let mut audit = sound;
                if sound_survived {
                    audit.extend(
                        self.config
                            .unsound_filters
                            .iter()
                            .map(|&k| filters.verdict(k, w)),
                    );
                }
                let pruned_by = audit.iter().find(|v| v.pruned).map(|v| v.kind);
                let rendered = render_warning(self.program, &self.threads, w);
                WarningProvenance {
                    id: warning_id(self.program, &self.threads, w),
                    derivation: derivation(w, &rendered),
                    rendered,
                    survived: pruned_by.is_none(),
                    pruned_by,
                    audit,
                    hb: hb_evidence(self, w),
                    refutation: self.refutation_of(w).cloned(),
                    confirmation: None,
                }
            })
            .collect()
    }
}

/// The derivation of a warning's `racyPair` fact, with its first shared
/// object as the witness; `None` when it has none.
fn derivation(w: &UafWarning, r: &RenderedWarning) -> Option<DerivationNode> {
    let witness = w.shared_objs.first()?.0;
    let obj = format!("obj#{witness}");
    let u = (r.use_site.as_str(), w.use_access.instr.raw());
    let f = (r.free_site.as_str(), w.free_access.instr.raw());
    let t1 = (r.use_lineage.as_str(), w.use_thread.raw());
    let t2 = (r.free_lineage.as_str(), w.free_thread.raw());
    let fld = (r.field.as_str(), w.field.raw());
    let o = (obj.as_str(), witness);
    let aliased = node(
        "aliasedPair",
        &[u, f],
        Some(ALIASED_PAIR_RULE),
        vec![
            base("useAt", &[u, fld]),
            base("freeAt", &[f, fld]),
            base("ptsUse", &[u, o]),
            base("ptsFree", &[f, o]),
            base("sharedObj", &[o]),
        ],
    );
    Some(node(
        "racyPair",
        &[u, f, t1, t2],
        Some(RACY_PAIR_RULE),
        vec![
            aliased,
            base("runsOn", &[u, t1]),
            base("runsOn", &[f, t2]),
            base("distinctThreads", &[t1, t2]),
        ],
    ))
}

/// A node for `relation(args…)`: each argument rendered in source terms
/// in the fact and kept raw in the tuple.
fn node(
    relation: &str,
    args: &[(&str, u32)],
    rule: Option<&str>,
    premises: Vec<DerivationNode>,
) -> DerivationNode {
    let rendered: Vec<&str> = args.iter().map(|&(text, _)| text).collect();
    DerivationNode {
        fact: format!("{relation}({})", rendered.join(", ")),
        relation: relation.to_owned(),
        tuple: args.iter().map(|&(_, raw)| raw).collect(),
        rule: rule.map(str::to_owned),
        premises,
    }
}

/// A base (EDB) fact.
fn base(relation: &str, args: &[(&str, u32)]) -> DerivationNode {
    node(relation, args, None, Vec::new())
}

/// Render the happens-before evidence between a warning's two threads,
/// in source terms: each direct graph edge (use→free first, then
/// free→use), then either the `mustHb` path or the `mhp` fact.
fn hb_evidence(analysis: &Analysis<'_>, w: &UafWarning) -> Vec<String> {
    let g = analysis.hb();
    let p = analysis.program();
    let t = analysis.threads();
    let lin = |id| t.lineage_string(p, id);
    let label = |kind: HbEdgeKind| match kind {
        HbEdgeKind::Cancel(api) => format!("{} via {}", kind.relation(), api.method_name()),
        HbEdgeKind::Reentry(f) => format!(
            "{} re-allocating {}.{}",
            kind.relation(),
            p.class(p.field(f).owner()).name(),
            p.field(f).name()
        ),
        k => k.relation().to_owned(),
    };
    let mut out = Vec::new();
    let mut directions = vec![(w.use_thread, w.free_thread)];
    if w.free_thread != w.use_thread {
        directions.push((w.free_thread, w.use_thread));
    }
    for (a, b) in directions {
        for e in g.edges_between(a, b) {
            out.push(format!(
                "{}: [{}] -> [{}]",
                label(e.kind),
                lin(e.src),
                lin(e.dst)
            ));
        }
        if let Some(path) = g.must_hb_path(a, b) {
            let hops: Vec<String> = path.into_iter().map(lin).collect();
            out.push(format!("mustHb: {}", hops.join(" -> ")));
        }
    }
    if g.mhp(w.use_thread, w.free_thread) {
        out.push("mhp: no sound ordering in either direction".to_owned());
    }
    out
}

/// Serialize the provenance of every warning as JSON under the
/// [`PROVENANCE_SCHEMA`] (`nadroid-provenance/4`) schema.
#[must_use]
pub fn render_provenance_json(analysis: &Analysis<'_>) -> String {
    render_provenance_json_with(analysis, &analysis.warning_provenances())
}

/// [`render_provenance_json`] over provenances the caller has already
/// computed — [`Analysis::warning_provenances`] re-runs every filter
/// verdict and renders every tree, so callers that need both the
/// structs and the JSON should compute once.
#[must_use]
pub fn render_provenance_json_with(
    analysis: &Analysis<'_>,
    provenances: &[WarningProvenance],
) -> String {
    let _span = obs::span("provenance.json");
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{PROVENANCE_SCHEMA}\",");
    let _ = writeln!(out, "  \"app\": \"{}\",", esc(analysis.program().name()));
    let _ = writeln!(
        out,
        "  \"program_hash\": \"{}\",",
        esc(&program_hash(analysis.program()))
    );
    out.push_str("  \"warnings\": [");
    for (i, p) in provenances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"id\": \"{}\",", esc(&p.id));
        let _ = writeln!(out, "      \"field\": \"{}\",", esc(&p.rendered.field));
        let _ = writeln!(
            out,
            "      \"use_site\": \"{}\",",
            esc(&p.rendered.use_site)
        );
        let _ = writeln!(
            out,
            "      \"free_site\": \"{}\",",
            esc(&p.rendered.free_site)
        );
        let _ = writeln!(out, "      \"pair_type\": \"{}\",", p.rendered.pair_type);
        let _ = writeln!(
            out,
            "      \"use_lineage\": \"{}\",",
            esc(&p.rendered.use_lineage)
        );
        let _ = writeln!(
            out,
            "      \"free_lineage\": \"{}\",",
            esc(&p.rendered.free_lineage)
        );
        let _ = writeln!(out, "      \"survived\": {},", p.survived);
        match p.pruned_by {
            Some(k) => {
                let _ = writeln!(out, "      \"pruned_by\": \"{}\",", k.name());
            }
            None => {
                let _ = writeln!(out, "      \"pruned_by\": null,");
            }
        }
        out.push_str("      \"audit\": [");
        for (j, v) in p.audit.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{ \"filter\": \"{}\", \"pruned\": {}, \"evidence\": \"{}\" }}",
                v.kind.name(),
                v.pruned,
                esc(&v.evidence)
            );
        }
        if p.audit.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n      ],\n");
        }
        out.push_str("      \"hb\": [");
        for (j, line) in p.hb.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n        \"{}\"", esc(line));
        }
        if p.hb.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n      ],\n");
        }
        match &p.refutation {
            Some(r) => {
                out.push_str("      \"refutation\": {\n");
                let _ = writeln!(out, "        \"reason\": \"{}\",", r.reason.name());
                out.push_str("        \"chain\": [");
                for (j, step) in r.chain.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\n          \"{}\"", esc(step));
                }
                if r.chain.is_empty() {
                    out.push_str("]\n");
                } else {
                    out.push_str("\n        ]\n");
                }
                out.push_str("      },\n");
            }
            None => out.push_str("      \"refutation\": null,\n"),
        }
        match &p.confirmation {
            Some(c) => {
                out.push_str("      \"confirmation\": {\n");
                let _ = writeln!(out, "        \"verdict\": \"{}\",", c.verdict);
                let _ = writeln!(out, "        \"reason\": \"{}\",", esc(&c.reason));
                let _ = writeln!(out, "        \"states_explored\": {},", c.states_explored);
                match &c.schedule {
                    Some(s) => {
                        let _ = writeln!(out, "        \"schedule\": \"{}\",", esc(s));
                    }
                    None => out.push_str("        \"schedule\": null,\n"),
                }
                match &c.npe_at {
                    Some(s) => {
                        let _ = writeln!(out, "        \"npe_at\": \"{}\"", esc(s));
                    }
                    None => out.push_str("        \"npe_at\": null\n"),
                }
                out.push_str("      },\n");
            }
            None => out.push_str("      \"confirmation\": null,\n"),
        }
        match &p.derivation {
            Some(d) => {
                out.push_str("      \"derivation\": ");
                write_derivation_json(&mut out, d, 6);
                out.push('\n');
            }
            None => out.push_str("      \"derivation\": null\n"),
        }
        out.push_str("    }");
    }
    if provenances.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

fn write_derivation_json(out: &mut String, d: &DerivationNode, indent: usize) {
    let pad = " ".repeat(indent);
    out.push_str("{\n");
    let _ = writeln!(out, "{pad}  \"fact\": \"{}\",", esc(&d.fact));
    let _ = writeln!(out, "{pad}  \"relation\": \"{}\",", esc(&d.relation));
    let tuple: Vec<String> = d.tuple.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "{pad}  \"tuple\": [{}],", tuple.join(", "));
    match &d.rule {
        Some(r) => {
            let _ = writeln!(out, "{pad}  \"rule\": \"{}\",", esc(r));
        }
        None => {
            let _ = writeln!(out, "{pad}  \"rule\": null,");
        }
    }
    let _ = write!(out, "{pad}  \"premises\": [");
    for (i, prem) in d.premises.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{pad}    ");
        write_derivation_json(out, prem, indent + 4);
    }
    if d.premises.is_empty() {
        out.push_str("]\n");
    } else {
        let _ = write!(out, "\n{pad}  ]\n");
    }
    let _ = write!(out, "{pad}}}");
}

/// The provenance fields `nadroid explain` renders, decoupled from the
/// live [`Analysis`] so the same rendering serves both a fresh run and a
/// previously-exported [`PROVENANCE_SCHEMA`] document (the serve result
/// cache and the CLI's provenance-file fast path).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ExplainEntry {
    id: String,
    field: String,
    use_site: String,
    use_lineage: String,
    free_site: String,
    free_lineage: String,
    pair_type: String,
    pruned_by: Option<String>,
    /// (filter name, pruned, evidence).
    audit: Vec<(String, bool, String)>,
    hb: Vec<String>,
    derivation: Option<DerivationNode>,
    /// (reason wire name, contradiction chain).
    refutation: Option<(String, Vec<String>)>,
    confirmation: Option<Confirmation>,
}

fn entry_of(p: &WarningProvenance) -> ExplainEntry {
    ExplainEntry {
        id: p.id.clone(),
        field: p.rendered.field.clone(),
        use_site: p.rendered.use_site.clone(),
        use_lineage: p.rendered.use_lineage.clone(),
        free_site: p.rendered.free_site.clone(),
        free_lineage: p.rendered.free_lineage.clone(),
        pair_type: p.rendered.pair_type.to_string(),
        pruned_by: p.pruned_by.map(|k| k.name().to_owned()),
        audit: p
            .audit
            .iter()
            .map(|v| (v.kind.name().to_owned(), v.pruned, v.evidence.clone()))
            .collect(),
        hb: p.hb.clone(),
        derivation: p.derivation.clone(),
        refutation: p
            .refutation
            .as_ref()
            .map(|r| (r.reason.name().to_owned(), r.chain.clone())),
        confirmation: p.confirmation.clone(),
    }
}

fn render_entries(entries: &[ExplainEntry], id: Option<&str>) -> String {
    let selected: Vec<&ExplainEntry> = match id {
        Some(want) => entries.iter().filter(|e| e.id == want).collect(),
        None => entries.iter().collect(),
    };
    if selected.is_empty() {
        let mut out = match id {
            Some(want) => format!("no warning with id {want}\n"),
            None => String::from("no warnings\n"),
        };
        if !entries.is_empty() {
            out.push_str("known ids:\n");
            for e in entries {
                let _ = writeln!(out, "  {}  ({})", e.id, e.field);
            }
        }
        return out;
    }
    let mut out = String::new();
    for (i, e) in selected.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "warning {}", e.id);
        let _ = writeln!(out, "  field:  {}", e.field);
        let _ = writeln!(out, "  use:    {}  [{}]", e.use_site, e.use_lineage);
        let _ = writeln!(out, "  free:   {}  [{}]", e.free_site, e.free_lineage);
        let _ = writeln!(out, "  type:   {}", e.pair_type);
        if !e.hb.is_empty() {
            out.push_str("  ordering:\n");
            for line in &e.hb {
                let _ = writeln!(out, "    {line}");
            }
        }
        match (&e.pruned_by, &e.refutation) {
            (Some(k), _) => {
                let _ = writeln!(out, "  status: pruned by {k}");
            }
            (None, Some((reason, _))) => {
                let _ = writeln!(out, "  status: refuted ({reason})");
            }
            (None, None) => {
                let _ = writeln!(out, "  status: survived all filters");
            }
        }
        if let Some((reason, chain)) = &e.refutation {
            out.push_str("\n  refutation:\n");
            let _ = writeln!(out, "    reason: {reason}");
            for step in chain {
                let _ = writeln!(out, "    - {step}");
            }
        }
        if let Some(c) = &e.confirmation {
            out.push_str("\n  confirmation:\n");
            let _ = writeln!(out, "    verdict: {}", c.verdict);
            let _ = writeln!(out, "    reason:  {}", c.reason);
            let _ = writeln!(out, "    states:  {}", c.states_explored);
            if let Some(at) = &c.npe_at {
                let _ = writeln!(out, "    npe at:  {at}");
            }
            if let Some(s) = &c.schedule {
                out.push_str("    witness schedule:\n");
                let _ = writeln!(out, "      {s}");
            }
        }
        out.push_str("\n  derivation:\n");
        match &e.derivation {
            Some(d) => write_derivation_text(&mut out, d, 4),
            None => out.push_str("    (not recorded)\n"),
        }
        out.push_str("\n  filter audit:\n");
        for (kind, pruned, evidence) in &e.audit {
            let verdict = if *pruned { "prune" } else { "pass " };
            let _ = writeln!(out, "    {kind:4} {verdict}  {evidence}");
        }
    }
    out
}

/// Render warning provenance as text — the body of `nadroid explain`.
/// With `id = Some(..)`, only that warning; with `None`, all of them.
/// Unknown ids render a note listing the known ids.
#[must_use]
pub fn render_explain(analysis: &Analysis<'_>, id: Option<&str>) -> String {
    let entries: Vec<ExplainEntry> = analysis
        .warning_provenances()
        .iter()
        .map(entry_of)
        .collect();
    render_entries(&entries, id)
}

/// Render the `nadroid explain` text from a serialized
/// [`PROVENANCE_SCHEMA`] document instead of a live analysis — the fast
/// path when the provenance was already computed (by
/// `analyze --provenance`, the table1 driver, `nadroid confirm`, or the
/// serve result cache).
///
/// # Errors
///
/// Returns a message when the document is not parseable JSON or does not
/// carry [`PROVENANCE_SCHEMA`] (older schemas are stale, not legacy).
pub fn render_explain_from_json(doc: &str, id: Option<&str>) -> Result<String, String> {
    let v = crate::json::parse_json(doc)?;
    if v.get("schema").and_then(JsonValue::as_str) != Some(PROVENANCE_SCHEMA) {
        return Err(format!("not a {PROVENANCE_SCHEMA} document"));
    }
    let warnings = v
        .get("warnings")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "provenance document has no warnings array".to_owned())?;
    let entries = warnings
        .iter()
        .map(entry_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(render_entries(&entries, id))
}

fn json_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("provenance warning missing `{key}`"))
}

fn entry_from_json(v: &JsonValue) -> Result<ExplainEntry, String> {
    let audit = v
        .get("audit")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|a| {
            Ok((
                json_str(a, "filter")?,
                a.get("pruned")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                json_str(a, "evidence")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let hb = v
        .get("hb")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_str)
        .map(str::to_owned)
        .collect();
    let derivation = match v.get("derivation") {
        None | Some(JsonValue::Null) => None,
        Some(d) => Some(derivation_from_json(d)?),
    };
    let refutation = match v.get("refutation") {
        None | Some(JsonValue::Null) => None,
        Some(r) => {
            let reason = json_str(r, "reason")?;
            if RefutationReason::from_name(&reason).is_none() {
                return Err(format!("unknown refutation reason {reason:?}"));
            }
            let chain = r
                .get("chain")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_str)
                .map(str::to_owned)
                .collect();
            Some((reason, chain))
        }
    };
    let confirmation = match v.get("confirmation") {
        None | Some(JsonValue::Null) => None,
        Some(c) => Some(confirmation_from_json(c)?),
    };
    Ok(ExplainEntry {
        id: json_str(v, "id")?,
        field: json_str(v, "field")?,
        use_site: json_str(v, "use_site")?,
        use_lineage: json_str(v, "use_lineage")?,
        free_site: json_str(v, "free_site")?,
        free_lineage: json_str(v, "free_lineage")?,
        pair_type: json_str(v, "pair_type")?,
        pruned_by: v
            .get("pruned_by")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        audit,
        hb,
        derivation,
        refutation,
        confirmation,
    })
}

fn confirmation_from_json(v: &JsonValue) -> Result<Confirmation, String> {
    let verdict = json_str(v, "verdict")?;
    Ok(Confirmation {
        verdict: ConfirmVerdict::from_str(&verdict)
            .ok_or_else(|| format!("unknown confirmation verdict {verdict:?}"))?,
        reason: json_str(v, "reason")?,
        states_explored: v
            .get("states_explored")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        schedule: v
            .get("schedule")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        npe_at: v
            .get("npe_at")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
    })
}

fn derivation_from_json(v: &JsonValue) -> Result<DerivationNode, String> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let tuple = v
        .get("tuple")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(JsonValue::as_u64)
        .map(|n| n as u32)
        .collect();
    Ok(DerivationNode {
        fact: json_str(v, "fact")?,
        relation: json_str(v, "relation")?,
        tuple,
        rule: v.get("rule").and_then(JsonValue::as_str).map(str::to_owned),
        premises: v
            .get("premises")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(derivation_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn write_derivation_text(out: &mut String, d: &DerivationNode, indent: usize) {
    let pad = " ".repeat(indent);
    if let Some(rule) = &d.rule {
        let _ = writeln!(out, "{pad}{}  [{rule}]", d.fact);
    } else {
        let _ = writeln!(out, "{pad}{}  (base fact)", d.fact);
    }
    for prem in &d.premises {
        write_derivation_text(out, prem, indent + 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use nadroid_ir::parse_program;

    const FIG1A: &str = r#"
        app Fig1a
        activity Console {
            field bound: Console
            cb onCreate { bind this }
            cb onServiceConnected { bound = new Console }
            cb onServiceDisconnected { bound = null }
            cb onCreateContextMenu { use bound }
        }
    "#;

    #[test]
    fn every_warning_is_explainable() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let provs = a.warning_provenances();
        assert_eq!(provs.len(), a.warnings().len());
        for wp in &provs {
            let d = wp.derivation.as_ref().expect("derivation recorded");
            assert_eq!(d.relation, "racyPair");
            assert!(d.rule.is_some(), "racyPair is derived, not EDB");
            fn leaves_are_base(n: &DerivationNode) {
                if n.premises.is_empty() {
                    assert!(n.is_base(), "leaf {} must be a base fact", n.fact);
                } else {
                    for p in &n.premises {
                        leaves_are_base(p);
                    }
                }
            }
            leaves_are_base(d);
            assert!(!wp.audit.is_empty());
        }
    }

    /// Both `h` allocations and the `H.v` allocation reach the bases of
    /// the two uses of `H.v`, so the two warnings share objects
    /// `[1, 2, 3]` and `[2, 3]`. No corpus warning shares more than one
    /// object, so this program is what pins the witness choice.
    const TWO_WITNESSES: &str = r#"
        app TwoWitnesses
        class H { field v: H }
        activity M {
            field h: H
            cb onCreate {
                if ? {
                    h = new H
                } else {
                    h = new H
                }
                t1 = load this M.h
                t2 = new H
                store t1 H.v = t2
            }
            cb onClick {
                t1 = load this M.h
                t2 = load t1 H.v
                t3 = load t2 H.v
            }
            cb onPause {
                t1 = load this M.h
                free t1 H.v
            }
        }
    "#;

    #[test]
    fn derivations_name_the_lowest_numbered_shared_object() {
        let p = parse_program(TWO_WITNESSES).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let provs = a.warning_provenances();
        let mut shared_sets = Vec::new();
        for (w, wp) in a.warnings().iter().zip(&provs) {
            shared_sets.push(w.shared_objs.iter().map(|o| o.0).collect::<Vec<_>>());
            let witness = format!("obj#{})", w.shared_objs.iter().min().unwrap().0);
            let aliased = &wp.derivation.as_ref().unwrap().premises[0];
            assert_eq!(aliased.relation, "aliasedPair");
            let named: Vec<&str> = aliased
                .premises
                .iter()
                .filter(|f| ["ptsUse", "ptsFree", "sharedObj"].contains(&f.relation.as_str()))
                .map(|f| f.fact.as_str())
                .collect();
            assert_eq!(named.len(), 3, "{named:?}");
            assert!(
                named.iter().all(|f| f.ends_with(&witness)),
                "{named:?} for {witness}"
            );
        }
        shared_sets.sort();
        shared_sets.dedup();
        assert_eq!(shared_sets, [vec![1, 2, 3], vec![2, 3]]);
    }

    #[test]
    fn audit_is_consistent_with_the_pipeline_outcomes() {
        // The audit's pruned bits must reproduce the pipeline's verdicts
        // — the same accounting the Figure 5 tallies are built from.
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let provs = a.warning_provenances();
        for (wp, outcome) in provs.iter().zip(a.sound_outcomes()) {
            for v in wp
                .audit
                .iter()
                .filter(|v| a.config().sound_filters.contains(&v.kind))
            {
                assert_eq!(
                    v.pruned,
                    outcome.all_pruning.contains(&v.kind),
                    "audit and pipeline disagree on {}",
                    v.kind
                );
            }
        }
        let survivors: Vec<&WarningProvenance> = provs.iter().filter(|p| p.survived).collect();
        assert_eq!(survivors.len(), a.survivors().len());
    }

    #[test]
    fn provenance_json_is_balanced_and_carries_the_schema() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let json = render_provenance_json(&a);
        assert!(
            json.contains("\"schema\": \"nadroid-provenance/4\""),
            "{json}"
        );
        assert!(json.contains("\"refutation\": null"), "{json}");
        assert!(json.contains("\"program_hash\": \"p:"), "{json}");
        assert!(json.contains("\"hb\": ["), "{json}");
        assert!(json.contains("\"confirmation\": null"), "{json}");
        assert!(json.contains("\"derivation\": {"), "{json}");
        assert!(json.contains("racyPair"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn explain_renders_tree_audit_and_lineage() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let text = render_explain(&a, None);
        assert!(text.contains("derivation:"), "{text}");
        assert!(text.contains("ordering:"), "{text}");
        assert!(text.contains("racyPair("), "{text}");
        assert!(text.contains("(base fact)"), "{text}");
        assert!(text.contains("filter audit:"), "{text}");
        assert!(text.contains("main > "), "{text}");
    }

    #[test]
    fn explain_from_json_matches_the_live_rendering() {
        // The provenance-file fast path (CLI cache, serve cache) must
        // render byte-identically to a fresh analysis.
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let doc = render_provenance_json(&a);
        let from_json = render_explain_from_json(&doc, None).unwrap();
        assert_eq!(from_json, render_explain(&a, None));
        let provs = a.warning_provenances();
        let id = &provs[0].id;
        assert_eq!(
            render_explain_from_json(&doc, Some(id)).unwrap(),
            render_explain(&a, Some(id))
        );
        assert!(render_explain_from_json("{}", None).is_err());
        assert!(render_explain_from_json("not json", None).is_err());
        // Older schemas are stale, not legacy: they are rejected.
        for old in ["nadroid-provenance/2", "nadroid-provenance/3"] {
            let stale = doc.replace("nadroid-provenance/4", old);
            assert!(render_explain_from_json(&stale, None).is_err(), "{old}");
        }
    }

    #[test]
    fn confirmation_round_trips_through_json_and_explain() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let mut provs = a.warning_provenances();
        provs[0].confirmation = Some(Confirmation {
            verdict: ConfirmVerdict::Confirmed,
            reason: "directed search manifested the pair".into(),
            states_explored: 42,
            schedule: Some("l0.onCreate c1 d1 l0.onCreateContextMenu".into()),
            npe_at: Some("Console.onCreateContextMenu#0".into()),
        });
        let doc = render_provenance_json_with(&a, &provs);
        assert!(doc.contains("\"verdict\": \"confirmed\""), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        let text = render_explain_from_json(&doc, None).unwrap();
        assert!(text.contains("verdict: confirmed"), "{text}");
        assert!(text.contains("witness schedule:"), "{text}");
        assert!(text.contains("l0.onCreate c1 d1"), "{text}");
        assert!(
            text.contains("npe at:  Console.onCreateContextMenu#0"),
            "{text}"
        );
        // An infeasible verdict renders without schedule lines.
        provs[0].confirmation = Some(Confirmation {
            verdict: ConfirmVerdict::Infeasible,
            reason: "state space drained without the pair".into(),
            states_explored: 7,
            schedule: None,
            npe_at: None,
        });
        let doc = render_provenance_json_with(&a, &provs);
        let text = render_explain_from_json(&doc, None).unwrap();
        assert!(text.contains("verdict: infeasible"), "{text}");
        assert!(!text.contains("witness schedule:"), "{text}");
        // Verdict names round-trip.
        for v in [
            ConfirmVerdict::Confirmed,
            ConfirmVerdict::Unconfirmed,
            ConfirmVerdict::Infeasible,
        ] {
            assert_eq!(ConfirmVerdict::from_str(v.as_str()), Some(v));
        }
        assert_eq!(ConfirmVerdict::from_str("maybe"), None);
    }

    #[test]
    fn refutation_round_trips_through_json_and_explain() {
        // A dialog listener disabled by onStop's dismiss: the warning
        // survives every filter, the refuter refutes it, and the v4
        // refutation block carries the chain through JSON and explain.
        let p = parse_program(
            r#"
            app Dlg
            activity Main {
                field f: Main
                field dlg: Dlg
                cb onCreate {
                    dlg = new Dlg
                    show dlg
                    f = new Main
                }
                cb onStop { dismiss dlg }
                cb onDestroy { f = null }
            }
            dialog Dlg in Main {
                cb onShow { use outer.f }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        assert_eq!(a.refutations().len(), 1, "the dialog warning refutes");
        let provs = a.warning_provenances();
        let refuted: Vec<&WarningProvenance> =
            provs.iter().filter(|wp| wp.refutation.is_some()).collect();
        assert_eq!(refuted.len(), 1);
        assert!(
            refuted[0].survived,
            "refutation applies to filter survivors"
        );
        let doc = render_provenance_json_with(&a, &provs);
        assert!(doc.contains("\"refutation\": {"), "{doc}");
        assert!(doc.contains("\"reason\": \"disabled\""), "{doc}");
        assert!(doc.contains("\"chain\": ["), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        let text = render_explain_from_json(&doc, None).unwrap();
        assert!(text.contains("status: refuted (disabled)"), "{text}");
        assert!(text.contains("refutation:"), "{text}");
        assert!(text.contains("reason: disabled"), "{text}");
        assert!(text.contains("once-only onCreate"), "{text}");
        assert_eq!(text, render_explain(&a, None), "fast path matches live");
        // A bogus reason is rejected rather than silently rendered.
        let bad = doc.replace("\"reason\": \"disabled\"", "\"reason\": \"vibes\"");
        assert!(render_explain_from_json(&bad, None).is_err());
    }

    #[test]
    fn explain_filters_by_id_and_reports_unknown_ids() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let provs = a.warning_provenances();
        let id = &provs[0].id;
        let text = render_explain(&a, Some(id));
        assert!(text.contains(id.as_str()), "{text}");
        let miss = render_explain(&a, Some("w:0000000000000000"));
        assert!(miss.contains("no warning with id"), "{miss}");
        assert!(
            miss.contains(id.as_str()),
            "unknown-id note lists known ids"
        );
    }
}
