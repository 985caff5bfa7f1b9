//! Canned, parameterized runners for every experiment in the paper.
//!
//! Each module maps to a figure/table of the evaluation (the full index
//! lives in `DESIGN.md`); the registered experiments of
//! [`crate::figures`] run them and write the rows/series the paper plots.
//!
//! | Module | Paper artefacts |
//! |---|---|
//! | [`scalability`] | Fig. 2 |
//! | [`rtt_fluctuations`] | Fig. 3 |
//! | [`tcp_single`] | Figs. 4, 5 |
//! | [`pair_sweep`] | Figs. 6, 7, 8 |
//! | [`granularity`] | Fig. 9 |
//! | [`cross_traffic`] | Figs. 10, 14, 15 and the multipath TE study: one matrix whose permutation pairs avoid every observed pair's ground stations |
//! | [`bent_pipe`] | Figs. 16–19 (Appendix A) |
//! | [`gsl_selection`] | ablation: gateway vs user-terminal GSL policy (§3.1) |
//! | [`flow_scaling`] | extension: gravity traffic matrix, 1k→1M flows |
//! | [`hybrid`] | extension: hybrid fluid/packet simulation of bulk traffic |

pub mod bent_pipe;
pub mod cross_traffic;
pub mod flow_scaling;
pub mod granularity;
pub mod gsl_selection;
pub mod hybrid;
pub mod pair_sweep;
pub mod rtt_fluctuations;
pub mod scalability;
pub mod tcp_single;

/// The paper's three canonical Fig. 3/4 pairs, with their historic file
/// slugs.
pub(crate) const CANONICAL_PAIRS: [(&str, &str, &str); 3] = [
    ("Rio de Janeiro", "Saint Petersburg", "rio_stpetersburg"),
    ("Manila", "Dalian", "manila_dalian"),
    ("Istanbul", "Nairobi", "istanbul_nairobi"),
];

/// File-name and snapshot-tag slug for a city pair: the historic names
/// for the paper's canonical pairs, a mechanical lowercase join otherwise.
pub(crate) fn pair_slug(src: &str, dst: &str) -> String {
    for (s, d, slug) in CANONICAL_PAIRS {
        if s == src && d == dst {
            return slug.to_string();
        }
    }
    format!("{}_{}", city_slug(src), city_slug(dst))
}

fn city_slug(name: &str) -> String {
    name.to_lowercase().replace(' ', "")
}
