//! The motivating example of the paper, end to end: Table 1's vacation packages and the six
//! customers of Table 2, each with a different implicit preference on the hotel group.
//!
//! The example also shows the progressive behaviour of Adaptive SFS: results stream out in
//! preference-score order, so an interactive application can show the best packages first.
//!
//! Run with: `cargo run -p skyline --example vacation_packages`

use skyline::adaptive::ScanMode;
use skyline::prelude::*;

fn main() -> Result<()> {
    let schema = Schema::new(vec![
        Dimension::numeric("price"),
        Dimension::numeric("class-neg"),
        Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
    ])?;
    let mut builder = DatasetBuilder::new(schema);
    let rows = [
        ("a", 1600.0, 4, "T"),
        ("b", 2400.0, 1, "T"),
        ("c", 3000.0, 5, "H"),
        ("d", 3600.0, 4, "H"),
        ("e", 2400.0, 2, "M"),
        ("f", 3000.0, 3, "M"),
    ];
    for (_, price, class, group) in rows {
        builder.push_row([
            RowValue::Num(price),
            RowValue::Num(-(class as f64)),
            group.into(),
        ])?;
    }
    let data = std::sync::Arc::new(builder.build()?);
    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    let template = Template::empty(data.schema());

    println!("Package  Price  Class  Hotel-group");
    for (i, (name, price, class, group)) in rows.iter().enumerate() {
        let _ = i;
        println!("{name:<8} {price:<6} {class:<6} {group}");
    }
    println!();

    // The six customers of Table 2.
    let customers = [
        ("Alice", "T < M < *"),
        ("Bob", "*"),
        ("Chris", "H < M < *"),
        ("David", "H < M < T"),
        ("Emily", "H < T < *"),
        ("Fred", "M < *"),
    ];

    let asfs = AdaptiveSfs::build(data.clone(), &template)?;
    println!(
        "Preprocessing: |SKY(template)| = {} of {} packages",
        asfs.preprocess_stats().template_skyline_size,
        data.len()
    );
    println!();
    println!(
        "{:<8} {:<16} {:<20} Progressive order",
        "Customer", "Preference", "Skyline"
    );
    for (customer, pref_text) in customers {
        let pref = Preference::parse(data.schema(), [("hotel-group", pref_text)])?;
        let skyline = asfs.query(&pref)?;
        let members: Vec<&str> = skyline.iter().map(|&p| names[p as usize]).collect();
        let streamed: Vec<&str> = asfs
            .query_scan(&pref, ScanMode::default())?
            .map(|p| names[p as usize])
            .collect();
        println!(
            "{customer:<8} {pref_text:<16} {{{:<18}}} {}",
            members.join(", "),
            streamed.join(" -> ")
        );
    }

    Ok(())
}
