(* Seeded chaos runs as scenario specs: a Fault.Gen plan against the
   testbed flow 0 -> 12, scored by Scenario.run. *)

(* The scenario flow runs 0 -> 12 on the testbed; severing plans pin
   the victim to the destination so a node crash is guaranteed to take
   down every route of the flow at once. *)
let flow_src = 0
let flow_dst = 12
let topology_seed = 4242

(* The plan needs the graph only: Scenario.run builds the network,
   whose interference domains cost far more to compute. *)
let graph () =
  Builder.graph
    (Testbed.generate (Rng.create topology_seed))
    (Schemes.scenario Schemes.Empower)

(* The plan draws from a split of the master stream, as Scenario.run
   draws a generated plan; the engine consumes the rest of it. *)
let plan ?(intensity = Fault.Gen.Moderate) g ~seed ~duration =
  let victim =
    match intensity with Fault.Gen.Severing -> Some flow_dst | _ -> None
  in
  Fault.Gen.plan ~intensity ?victim (Rng.split (Rng.create seed)) g ~duration

let slo = { Scenario.availability_frac = 0.5; min_availability = 0.75 }

let spec ?(intensity = Fault.Gen.Moderate) ?(recovery = false)
    ?(duration = 20.0) ~seed () =
  let name = Fault.Gen.intensity_name intensity in
  {
    Scenario.name = "chaos-" ^ name;
    description =
      Printf.sprintf
        "Chaos run: a %s fault plan drawn from seed %d against the saturated \
         testbed flow %d -> %d for %g s, recovery %s."
        name seed flow_src flow_dst duration
        (if recovery then "on" else "off");
    seed;
    duration;
    topology = Scenario.Testbed;
    topology_seed;
    devices = [];
    flows = [ (flow_src, flow_dst) ];
    churn = Scenario.Plan (plan ~intensity (graph ()) ~seed ~duration);
    recovery;
    slo;
  }
