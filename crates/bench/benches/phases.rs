//! §8.8 phase benchmark: modeling (threadification) vs detection
//! (points-to + escape + pair enumeration) vs filtering, measured
//! separately on a mid-size suite app. The paper reports detection
//! dominating at ~96% of analysis time; this bench shows the same shape.

use criterion::{criterion_group, criterion_main, Criterion};
use nadroid_corpus::{generate, spec_for, table1_rows};
use nadroid_detector::{detect, DetectorOptions};
use nadroid_filters::{FilterKind, Filters};
use nadroid_hb::HbGraph;
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;
use std::hint::black_box;

fn bench_phases(c: &mut Criterion) {
    let rows = table1_rows();
    let row = rows.iter().find(|r| r.name == "Mms").expect("Mms row");
    let app = generate(&spec_for(row));
    let program = &app.program;

    let mut g = c.benchmark_group("phases");
    g.sample_size(20);

    g.bench_function("modeling", |b| {
        b.iter(|| black_box(ThreadModel::build(black_box(program))));
    });

    let threads = ThreadModel::build(program);
    g.bench_function("detection", |b| {
        b.iter(|| {
            let pts = PointsTo::run(program, &threads, 2);
            let esc = Escape::compute(program, &threads, &pts);
            black_box(detect(
                program,
                &threads,
                &pts,
                &esc,
                DetectorOptions::default(),
            ))
        });
    });

    let pts = PointsTo::run(program, &threads, 2);
    let esc = Escape::compute(program, &threads, &pts);
    let warnings = detect(program, &threads, &pts, &esc, DetectorOptions::default());
    g.bench_function("filtering", |b| {
        b.iter(|| {
            let hb = HbGraph::build(program, &threads);
            let filters = Filters::with_hb(program, &threads, &pts, &esc, &hb);
            let sound = filters.pipeline(warnings.clone(), FilterKind::sound());
            let survivors: Vec<_> = sound
                .iter()
                .filter(|o| o.survives())
                .map(|o| o.warning.clone())
                .collect();
            black_box(filters.pipeline(survivors, FilterKind::unsound()))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
