(* Registry of the machine models shipped with the toolkit.

   The models are data, not code: machines/*.mdesc at the repo root,
   embedded as strings at build time (see dune) and elaborated here
   through the same Mdesc parser/validator that handles user-supplied
   descriptions, so the shipped machines cannot drift from what
   [mslc --machine-file] would accept. *)

module Diag = Msl_util.Diag

let of_embedded file src = Mdesc.parse ~file:("machines/" ^ file) src

let h1 = of_embedded "h1.mdesc" Mdesc_embedded.h1
let hp3 = of_embedded "hp3.mdesc" Mdesc_embedded.hp3
let v11 = of_embedded "v11.mdesc" Mdesc_embedded.v11
let b17 = of_embedded "b17.mdesc" Mdesc_embedded.b17

let all = [ h1; hp3; v11; b17 ]

let known () = String.concat ", " (List.map (fun d -> d.Desc.d_name) all)

let find name =
  List.find_opt
    (fun d -> String.lowercase_ascii d.Desc.d_name = String.lowercase_ascii name)
    all

let get name =
  match find name with
  | Some d -> d
  | None ->
      Diag.error Diag.Semantic "unknown machine %S (known: %s)" name (known ())

let load_file path =
  let src =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Diag.error Diag.Semantic "cannot read machine description: %s" msg
  in
  Mdesc.parse ~file:path src
