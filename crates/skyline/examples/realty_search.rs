//! Realty search: one of the applications the paper's introduction motivates — "realties
//! (where type of realty, regions and style are examples of nominal attributes)".
//!
//! A synthetic portfolio of listings is generated with numeric attributes (price, commute
//! minutes) and nominal attributes (region, property type). Different buyers express different
//! implicit preferences on the nominal attributes, and the engine answers each of them online
//! from the same materialized structures. The example also contrasts the IPO-tree and the
//! Adaptive-SFS answers to show they agree.
//!
//! Run with: `cargo run -p skyline --example realty_search --release`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skyline::adaptive::ScanMode;
use skyline::prelude::*;

const REGIONS: [&str; 6] = [
    "downtown",
    "harbor",
    "old-town",
    "suburb-north",
    "suburb-south",
    "riverside",
];
const TYPES: [&str; 4] = ["apartment", "townhouse", "detached", "loft"];

fn build_listings(n: usize, seed: u64) -> Result<Dataset> {
    let schema = Schema::new(vec![
        Dimension::numeric("price-keur"),
        Dimension::numeric("commute-min"),
        Dimension::nominal_with_labels("region", REGIONS),
        Dimension::nominal_with_labels("type", TYPES),
    ])?;
    let mut builder = DatasetBuilder::new(schema);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..n {
        let region = REGIONS[rng.gen_range(0..REGIONS.len())];
        let ptype = TYPES[rng.gen_range(0..TYPES.len())];
        // Central regions are pricier but closer; detached houses cost more than apartments.
        let base_price = 250.0 + rng.gen::<f64>() * 400.0;
        let region_factor = match region {
            "downtown" | "harbor" => 1.4,
            "old-town" | "riverside" => 1.2,
            _ => 1.0,
        };
        let type_factor = match ptype {
            "detached" => 1.5,
            "townhouse" => 1.2,
            "loft" => 1.1,
            _ => 1.0,
        };
        let price = base_price * region_factor * type_factor;
        let commute = match region {
            "downtown" => rng.gen_range(5.0..20.0),
            "harbor" | "old-town" | "riverside" => rng.gen_range(10.0..35.0),
            _ => rng.gen_range(25.0..60.0),
        };
        builder.push_row([
            RowValue::Num(price),
            RowValue::Num(commute),
            region.into(),
            ptype.into(),
        ])?;
    }
    builder.build()
}

fn main() -> Result<()> {
    // One shared copy of the listings feeds both engines (Arc clone, not a data copy).
    let data = std::sync::Arc::new(build_listings(5_000, 20_08)?);
    let template = Template::empty(data.schema());

    let engine = SkylineEngine::build(
        data.clone(),
        template.clone(),
        EngineConfig::Hybrid { top_k: 4 },
    )?;
    let asfs = AdaptiveSfs::build(data.clone(), &template)?;
    println!(
        "{} listings, template skyline has {} entries",
        data.len(),
        asfs.preprocess_stats().template_skyline_size
    );
    println!();

    let buyers = [
        (
            "Young professional",
            vec![
                ("region", "downtown < harbor < *"),
                ("type", "loft < apartment < *"),
            ],
        ),
        (
            "Family with kids",
            vec![
                ("region", "suburb-north < suburb-south < *"),
                ("type", "detached < townhouse < *"),
            ],
        ),
        ("Retiree", vec![("region", "riverside < old-town < *")]),
        (
            "Investor (no area preference)",
            vec![("type", "apartment < *")],
        ),
    ];

    for (buyer, spec) in buyers {
        let pref = Preference::parse(data.schema(), spec.clone())?;
        let outcome = engine.query(&pref)?;
        let adaptive_answer = asfs.query(&pref)?;
        assert_eq!(outcome.skyline, adaptive_answer, "both methods must agree");
        println!(
            "{buyer:<30} preference [{}]",
            spec.iter()
                .map(|(d, p)| format!("{d}: {p}"))
                .collect::<Vec<_>>()
                .join("; ")
        );
        println!(
            "  -> {} skyline listings (answered by {:?}); best 5 by preference score:",
            outcome.skyline.len(),
            outcome.method
        );
        for p in asfs.query_scan(&pref, ScanMode::default())?.take(5) {
            println!(
                "     #{p:<6} {:>7.0} kEUR  {:>4.0} min  {:12} {}",
                data.numeric(p, 0),
                data.numeric(p, 1),
                data.nominal_label(p, 0),
                data.nominal_label(p, 1),
            );
        }
        println!();
    }
    Ok(())
}
