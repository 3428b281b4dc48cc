// Quickstart: reverse engineer the routing design of a small enterprise
// network from its router configurations.
//
// The three configurations below describe the canonical textbook
// enterprise of the paper's Section 3.1: a border router (gw) speaks EBGP
// to the provider and redistributes the learned routes into OSPF, from
// which the interior routers (r2, r3) learn everything.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"routinglens"
)

var configs = map[string]string{
	"gw": `hostname gw
interface Serial0
 ip address 203.0.113.1 255.255.255.252
 ip access-group 110 in
interface Ethernet0
 ip address 10.1.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
 redistribute bgp 64512 metric 1 subnets
 redistribute connected subnets
router bgp 64512
 redistribute ospf 1 route-map ANNOUNCE
 neighbor 203.0.113.2 remote-as 3320
 neighbor 203.0.113.2 distribute-list 20 in
 neighbor 203.0.113.2 distribute-list 21 out
access-list 20 permit any
access-list 21 permit 10.0.0.0 0.255.255.255
access-list 22 permit 10.0.0.0 0.255.255.255
route-map ANNOUNCE permit 10
 match ip address 22
access-list 110 deny ip 10.0.0.0 0.255.255.255 any
access-list 110 permit ip any any
`,
	"r2": `hostname r2
interface Ethernet0
 ip address 10.1.0.2 255.255.255.252
interface Ethernet1
 ip address 10.1.0.5 255.255.255.252
interface FastEthernet0/0
 ip address 10.20.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
 redistribute connected subnets
`,
	"r3": `hostname r3
interface Ethernet0
 ip address 10.1.0.6 255.255.255.252
interface FastEthernet0/0
 ip address 10.30.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
 redistribute connected subnets
`,
}

func main() {
	ctx := context.Background()
	an := routinglens.NewAnalyzer()
	design, diags, err := an.AnalyzeConfigs(ctx, "quickstart", configs)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		log.Printf("parse warning: %s", d)
	}

	// The design summary: routing instances, route exchange, policies.
	fmt.Println(design.Summary())

	// Where do r3's routes come from, and which policies shape them?
	pw, err := design.Pathway("r3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pw)

	// What would the network reach if the provider announced a default
	// route and a remote prefix?
	def, _ := routinglens.ParsePrefix("0.0.0.0/0")
	remote, _ := routinglens.ParsePrefix("198.51.100.0/24")
	reach := design.Reachability([]routinglens.ExternalRoute{
		{Prefix: def, AS: 3320},
		{Prefix: remote, AS: 3320},
	})
	fmt.Printf("default route admitted: %v\n", reach.HasDefaultRoute())
	fmt.Printf("admitted external routes: %v\n", reach.AdmittedExternalRoutes())
}
