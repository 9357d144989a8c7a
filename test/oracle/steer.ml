(* Engine steering for differential tests and benchmarks.  The
   calibration table is the only thing that chooses an engine, so a run
   that must exercise one engine installs a table whose cutoffs send
   every instance there.  The cache tier is switched off for the run:
   a memoised total would otherwise answer for whichever engine filled
   it, and the comparison would be between cache hits. *)

module Dispatch = Wlcq_dispatch.Dispatch
module Cache = Wlcq_cache.Cache

(* Brute enumeration for every hom count and the projection-row kernel
   for every answer count whose predicted work has not saturated
   (costs saturate at [sat_cap], so no DP estimate outweighs it). *)
let brute =
  { Dispatch.default_calibration with
    Dispatch.brute_hom_max = Dispatch.sat_cap;
    enum_answers_max = Dispatch.sat_cap }

(* The full packed pipeline, arc consistency included, on every
   instance. *)
let packed =
  { Dispatch.default_calibration with
    Dispatch.brute_hom_max = 0;
    prune_min_work = 0;
    enum_answers_max = 0 }

(* [with_calibration c f] runs [f] under [c] with the cache tier off,
   then restores the default table and the previous capacity. *)
let with_calibration c f =
  let capacity = (Cache.stats ()).Cache.capacity_words in
  Dispatch.set_calibration c;
  Cache.set_capacity_words 0;
  Fun.protect
    ~finally:(fun () ->
      Dispatch.reset_calibration ();
      Cache.set_capacity_words capacity)
    f
