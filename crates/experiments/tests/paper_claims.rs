//! The paper's §4 conclusions, asserted on the committed `results/` —
//! which `hbh-exp all --check 1` guarantees are what the code prints, so
//! no simulation runs here. A redraw that moves numbers passes; a change
//! that flips a conclusion fails, loudly rather than cosmetically.

use std::collections::BTreeMap;

/// One aligned table of a results file: row label → column name →
/// `(mean, ci95)`. Cells are `mean ± ci`, columns two or more spaces
/// apart, the table's gnuplot twin (same means, no CIs) follows it.
fn table(file: &str) -> BTreeMap<String, BTreeMap<String, (f64, f64)>> {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let cells = |line: &str| -> Vec<String> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(String::from)
            .collect()
    };
    // Line 1 is the `== hbh-exp … ==` header, line 2 the title.
    let mut lines = text.lines().skip(2);
    let columns = cells(lines.next().expect("column header"));
    lines
        .take_while(|l| !l.is_empty())
        .map(|line| {
            let row = cells(line);
            assert_eq!(row.len(), columns.len(), "{file}: {line}");
            let values = columns[1..].iter().zip(&row[1..]).map(|(col, cell)| {
                let mut parts = cell.split('±').map(|p| p.trim().parse::<f64>().unwrap());
                let mean = parts.next().unwrap();
                (col.clone(), (mean, parts.next().unwrap_or(0.0)))
            });
            (row[0].clone(), values.collect())
        })
        .collect()
}

#[test]
fn hbh_costs_less_than_reunite_and_as_much_as_pim_ss() {
    for file in ["fig7_isp.txt", "fig7_rand50.txt"] {
        let rows = table(file);
        assert!(rows.len() >= 8, "{file}: the whole sweep is there");
        for (m, row) in &rows {
            let ((hbh, hbh_ci), (ss, ss_ci)) = (row["HBH"], row["PIM-SS"]);
            assert!(hbh < row["REUNITE"].0, "{file} m={m}: HBH above REUNITE");
            assert!(
                (hbh - ss).abs() <= hbh_ci + ss_ci,
                "{file} m={m}: HBH {hbh} ± {hbh_ci} apart from PIM-SS {ss} ± {ss_ci}"
            );
        }
    }
}

#[test]
fn hbh_delay_is_lowest_and_the_shared_tree_highest() {
    for file in ["fig8_isp.txt", "fig8_rand50.txt"] {
        for (m, row) in &table(file) {
            let mean = |name: &str| row[name].0;
            for other in ["PIM-SM", "PIM-SS", "REUNITE"] {
                assert!(mean("HBH") < mean(other), "{file} m={m}: HBH above {other}");
            }
            for other in ["PIM-SS", "REUNITE"] {
                assert!(
                    mean("PIM-SM") > mean(other),
                    "{file} m={m}: PIM-SM below {other}"
                );
            }
        }
    }
}

#[test]
fn a_departure_never_reroutes_hbh_survivors() {
    let rows = table("stability.txt");
    assert_eq!(rows["survivor route changes"]["HBH"], (0.0, 0.0));
    assert_eq!(rows["failed runs"]["HBH"].0, 0.0);
}
