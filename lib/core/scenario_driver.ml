(* Breaker-cycling scenario driver.

   At the red-team exercise, PNNL required an automatic update generation
   tool "that would cycle through the breakers, flipping each
   periodically in a predetermined cycle that the red team would attempt
   to disrupt". This module is that tool: every [period] it commands the
   next breaker in the cycle to the opposite of its currently displayed
   state, through the deployment's first HMI. *)

type t = {
  deployment : Deployment.t;
  hmi : Scada.Hmi.t;
  order : string array;
  mutable cursor : int;
  mutable timer : Sim.Engine.timer option;
  mutable commands_issued : int;
}

let create deployment =
  let scenario = Deployment.scenario deployment in
  let hmi_bundle = (Deployment.hmis deployment).(0) in
  {
    deployment;
    hmi = hmi_bundle.Deployment.h_hmi;
    order = Array.of_list (Plc.Power.all_breakers scenario);
    cursor = 0;
    timer = None;
    commands_issued = 0;
  }

let commands_issued t = t.commands_issued

let tick t =
  if Array.length t.order > 0 then begin
    let breaker = t.order.(t.cursor) in
    t.cursor <- (t.cursor + 1) mod Array.length t.order;
    let close =
      match Scada.Hmi.displayed_closed t.hmi breaker with
      | Some currently_closed -> not currently_closed
      | None -> true
    in
    t.commands_issued <- t.commands_issued + 1;
    ignore (Scada.Hmi.command t.hmi ~breaker ~close)
  end

let start t ~period =
  if t.timer <> None then invalid_arg "Scenario_driver.start: already running";
  t.timer <-
    Some (Sim.Engine.every (Deployment.engine t.deployment) ~period (fun () -> tick t))

let stop t =
  match t.timer with
  | Some timer ->
      Sim.Engine.cancel_timer (Deployment.engine t.deployment) timer;
      t.timer <- None
  | None -> ()
