(* Per-host packet filter.

   Models the hardening step from Section III-B of the paper: "configured
   the firewall of each machine to block all incoming and outgoing traffic
   other than the specific IP address and port combinations used by our
   protocols". Rules are evaluated first-match-wins against UDP traffic;
   ARP is below the filter, as on a real host. *)

type direction = Ingress | Egress

type action = Allow | Deny

type rule = {
  direction : direction;
  action : action;
  remote_ip : Addr.Ip.t option; (* None = any *)
  local_port : int option;
  remote_port : int option;
  description : string;
}

type t = {
  mutable rules : rule list; (* kept in evaluation order *)
  mutable default_ingress : action;
  mutable default_egress : action;
}

let create ?(default_ingress = Allow) ?(default_egress = Allow) () =
  { rules = []; default_ingress; default_egress }

(* The paper's locked-down profile: default deny both ways. *)
let locked_down () = create ~default_ingress:Deny ~default_egress:Deny ()

let rule ?(action = Allow) ?remote_ip ?local_port ?remote_port ~description direction =
  { direction; action; remote_ip; local_port; remote_port; description }

let add t r = t.rules <- t.rules @ [ r ]

let allow_peer t ~remote_ip ~local_port ~description =
  add t (rule ~remote_ip ~local_port ~description Ingress);
  add t (rule ~remote_ip ~remote_port:local_port ~description Egress)

let set_default t direction action =
  match direction with
  | Ingress -> t.default_ingress <- action
  | Egress -> t.default_egress <- action

let matches r ~direction ~remote_ip ~local_port ~remote_port =
  r.direction = direction
  && (match r.remote_ip with None -> true | Some ip -> Addr.Ip.equal ip remote_ip)
  && (match r.local_port with None -> true | Some p -> p = local_port)
  && match r.remote_port with None -> true | Some p -> p = remote_port

type verdict = { action : action; matched : string option }

let evaluate t ~direction ~remote_ip ~local_port ~remote_port =
  let rec scan = function
    | [] ->
        let default =
          match direction with Ingress -> t.default_ingress | Egress -> t.default_egress
        in
        { action = default; matched = None }
    | r :: rest ->
        if matches r ~direction ~remote_ip ~local_port ~remote_port then
          { action = r.action; matched = Some r.description }
        else scan rest
  in
  scan t.rules

let rules t = t.rules
