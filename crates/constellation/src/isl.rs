//! Inter-satellite link layouts.
//!
//! Paper §3.1: the proposed mega-constellations hint at 4 ISLs per
//! satellite, and the literature's typical connectivity for that budget is
//! "+Grid": two links to the in-orbit neighbours, two to the same-index
//! satellites in the adjacent planes. Hypatia uses +Grid as the default and
//! also supports ISL-less (bent-pipe) constellations; both are static over
//! time (ISL setup takes tens of seconds, so dynamic re-targeting is
//! avoided).

use crate::shell::ShellSpec;

/// Which ISL interconnect to build.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum IslLayout {
    /// +Grid: ring within each orbit plus links to adjacent planes
    /// (per shell; shells are not cross-connected, as in the paper).
    #[default]
    PlusGrid,
    /// No ISLs at all (bent-pipe constellations, Appendix A).
    None,
}

/// Build the undirected ISL list for a set of shells under `layout`.
/// Satellite indices are global (shell-major, plane-major), matching
/// [`crate::Constellation`]'s numbering.
pub fn build_isls(shells: &[ShellSpec], layout: IslLayout) -> Vec<(u32, u32)> {
    match layout {
        IslLayout::None => Vec::new(),
        IslLayout::PlusGrid => {
            let mut isls = Vec::new();
            let mut base = 0u32;
            for shell in shells {
                plus_grid_shell(shell, base, &mut isls);
                base += shell.num_satellites();
            }
            isls
        }
    }
}

/// +Grid within one shell. `sat(o, s) = base + o * S + s`.
fn plus_grid_shell(shell: &ShellSpec, base: u32, out: &mut Vec<(u32, u32)>) {
    let orbits = shell.num_orbits;
    let per = shell.sats_per_orbit;
    let id = |o: u32, s: u32| base + o * per + s;
    for o in 0..orbits {
        for s in 0..per {
            // Intra-orbit successor (ring) — skip the wrap link for a
            // two-satellite orbit so we do not emit a duplicate pair.
            if per > 1 && !(per == 2 && s == 1) {
                out.push((id(o, s), id(o, (s + 1) % per)));
            }
            // Inter-orbit link to the same slot in the next plane (ring
            // over planes; the seam link closes the mesh).
            if orbits > 1 && !(orbits == 2 && o == 1) {
                out.push((id(o, s), id((o + 1) % orbits, s)));
            }
        }
    }
}

/// Per-satellite ISL degree for a built ISL set (diagnostics/tests).
pub fn isl_degrees(num_satellites: usize, isls: &[(u32, u32)]) -> Vec<u32> {
    let mut deg = vec![0u32; num_satellites];
    for &(a, b) in isls {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell(orbits: u32, per: u32) -> ShellSpec {
        ShellSpec::new("X", 550.0, orbits, per, 53.0)
    }

    #[test]
    fn plus_grid_gives_degree_four() {
        let s = shell(6, 8);
        let isls = build_isls(std::slice::from_ref(&s), IslLayout::PlusGrid);
        // 2 links per satellite (one intra, one inter emitted per sat) →
        // degree 4 each; |E| = 2N.
        assert_eq!(isls.len() as u32, 2 * s.num_satellites());
        let deg = isl_degrees(s.num_satellites() as usize, &isls);
        assert!(deg.iter().all(|&d| d == 4), "degrees {deg:?}");
    }

    #[test]
    fn no_duplicate_or_self_links() {
        let s = shell(5, 7);
        let isls = build_isls(std::slice::from_ref(&s), IslLayout::PlusGrid);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &isls {
            assert_ne!(a, b, "self link");
            let key = (a.min(b), a.max(b));
            assert!(seen.insert(key), "duplicate link {key:?}");
        }
    }

    #[test]
    fn kuiper_k1_isl_count() {
        // 34×34 shell: 2 × 1156 = 2312 ISLs (paper's +Grid on K1).
        let s = shell(34, 34);
        assert_eq!(build_isls(std::slice::from_ref(&s), IslLayout::PlusGrid).len(), 2312);
    }

    #[test]
    fn multi_shell_isls_do_not_cross_shells() {
        let shells = vec![shell(3, 4), shell(2, 5)];
        let isls = build_isls(&shells, IslLayout::PlusGrid);
        let first = 12u32;
        for &(a, b) in &isls {
            let a_in_first = a < first;
            let b_in_first = b < first;
            assert_eq!(a_in_first, b_in_first, "cross-shell ISL {a}-{b}");
        }
    }

    #[test]
    fn none_layout_is_empty() {
        assert!(build_isls(&[shell(10, 10)], IslLayout::None).is_empty());
    }

    #[test]
    fn two_orbit_shell_has_no_duplicate_seam() {
        let s = shell(2, 4);
        let isls = build_isls(std::slice::from_ref(&s), IslLayout::PlusGrid);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &isls {
            assert!(seen.insert((a.min(b), a.max(b))), "duplicate in 2-orbit shell");
        }
        // Each satellite: 2 intra-orbit + 1 inter-orbit (single seam pair) = 3.
        let deg = isl_degrees(8, &isls);
        assert!(deg.iter().all(|&d| d == 3), "{deg:?}");
    }

    #[test]
    fn graph_is_connected() {
        // BFS over +Grid must reach every satellite.
        let s = shell(7, 9);
        let n = s.num_satellites() as usize;
        let isls = build_isls(std::slice::from_ref(&s), IslLayout::PlusGrid);
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &isls {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "+Grid not connected");
    }
}
