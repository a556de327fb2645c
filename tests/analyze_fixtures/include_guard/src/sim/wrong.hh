// Fixture: a guard that does not follow the path.
// #ifndef CRNET_SIM_WRONG_HH in a comment does not count.

#ifndef SIM_WRONG_HH
#define SIM_WRONG_HH
#endif // SIM_WRONG_HH
