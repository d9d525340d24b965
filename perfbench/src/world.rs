//! The generated inputs every workload starts from: a Taxi-Foursquare
//! city, its trajectories, and the NGram mechanism over it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use trajshare_aggregate::region_tiles;
use trajshare_core::{MechanismConfig, NGramMechanism};
use trajshare_datagen::{
    generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
};
use trajshare_hierarchy::builders::foursquare;
use trajshare_model::{Dataset, TrajectorySet};

/// POIs in every workload's city; the mechanism decomposes it into
/// |R| = 79 regions, small enough for a cold IBU of about a second.
pub const NUM_POIS: usize = 150;
/// The city is a fixed public map, the same for every seed: a seed
/// changes the devices (their trajectories and randomness), not the map,
/// so the work per run does not depend on the seed.
const CITY_SEED: u64 = 7;

pub struct World {
    pub dataset: Dataset,
    pub set: TrajectorySet,
    pub mech: NGramMechanism,
    pub tiles: Vec<u16>,
    /// Seconds spent generating the city and trajectories.
    pub scenario_s: f64,
    /// Seconds spent building the mechanism (decomposition + graph).
    pub mechanism_s: f64,
}

impl World {
    /// Generates `trajectories` walks (before validity filtering) drawn
    /// from `seed` over the fixed city.
    pub fn build(seed: u64, trajectories: usize) -> World {
        let t0 = Instant::now();
        let city = SyntheticCity::generate(
            &CityConfig {
                num_pois: NUM_POIS,
                speed_kmh: Some(8.0),
                ..Default::default()
            },
            foursquare(),
            &mut StdRng::seed_from_u64(CITY_SEED),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let set = generate_taxi_foursquare(
            &city.dataset,
            &TaxiFoursquareConfig {
                num_trajectories: trajectories,
                ..Default::default()
            },
            &mut rng,
        );
        let scenario_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mech = NGramMechanism::build(&city.dataset, &MechanismConfig::default());
        let mechanism_s = t1.elapsed().as_secs_f64();
        assert!(!set.is_empty(), "scenario generated no valid trajectories");
        World {
            tiles: region_tiles(mech.regions()),
            dataset: city.dataset,
            set,
            mech,
            scenario_s,
            mechanism_s,
        }
    }
}
