//! Extension — datapath bit-width planning and verification per
//! application.
//!
//! For each application, derives the §V datapath widths ([`WidthPlan`])
//! from the workload geometry and runs the fixed-point training and search
//! datapaths bit-exactly against the software reference on a scaled-down
//! instance. This is the width-sufficiency evidence an RTL implementation
//! of Figs. 10/11 would need.
//!
//! Run: `cargo run --release -p lookhd-bench --bin ext_width_plan`

use hdc::levels::LevelMemory;
use hdc::quantize::{Quantization, Quantizer};
use lookhd::chunking::ChunkLayout;
use lookhd::encoder::LookupEncoder;
use lookhd::trainer::CounterTrainer;
use lookhd::{CompressedModel, CompressionConfig};
use lookhd_bench::table::Table;
use lookhd_datasets::apps::App;
use lookhd_rtl::datapath::WidthPlan;
use lookhd_rtl::{verify_search_datapath, verify_training_datapath};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut table = Table::new([
        "App",
        "table elem",
        "counter",
        "class acc",
        "search acc",
        "train bit-exact",
        "search bit-exact",
    ]);
    for app in App::ALL {
        let profile = app.profile();
        // Scaled-down verification instance (full geometry in n/q/r, small D).
        let d = 128usize;
        let q = profile.paper_q_lookhd;
        let r = 5usize;
        let data = profile.generate_sized(8, 2, 77);
        let plan = WidthPlan::derive(r, profile.n_features, d, 8, (profile.n_features * 8) as i64);
        let mut rng = StdRng::seed_from_u64(77);
        let levels = LevelMemory::generate(d, q, &mut rng).expect("level generation failed");
        let quantizer = Quantizer::fit(Quantization::Equalized, &data.train_values(), q)
            .expect("quantizer fit failed");
        let layout = ChunkLayout::new(profile.n_features, r, q).expect("layout failed");
        let encoder =
            LookupEncoder::new(layout, &levels, quantizer, 77).expect("encoder build failed");

        let train_report = verify_training_datapath(
            &encoder,
            &data.train.features,
            &data.train.labels,
            profile.n_classes,
            &plan,
        )
        .expect("training verification failed");

        let model = CounterTrainer::fit(
            &encoder,
            &data.train.features,
            &data.train.labels,
            profile.n_classes,
        )
        .expect("training failed");
        let compressed =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .expect("compression failed");
        let query = hdc::encoding::Encode::encode(&encoder, &data.test.features[0])
            .expect("encoding failed");
        let search =
            verify_search_datapath(&compressed, &query, &plan).expect("search verification failed");

        table.row([
            profile.name.to_owned(),
            plan.table_element.to_string(),
            plan.counter.to_string(),
            plan.class_accumulator.to_string(),
            plan.search_accumulator.to_string(),
            format!(
                "{} ({} elems)",
                train_report.is_bit_exact(),
                train_report.checked
            ),
            format!(
                "{} (pred match: {})",
                search.report.is_bit_exact(),
                search.prediction_matches
            ),
        ]);
    }
    println!(
        "Extension: §V datapath width plans and fixed-point bit-exactness\n\
         (scaled verification instances: D = 128, 8 samples/class)\n"
    );
    table.print();
    println!(
        "\nTable elements at the paper's ~log2(r) bits; counters sized to the\n\
         per-class sample budget; a zero-overflow bit-exact run certifies the\n\
         planned widths for that workload geometry."
    );
}
